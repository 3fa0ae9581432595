package rt

import (
	"r2c/internal/image"
	"r2c/internal/telemetry"
)

// LoadProcess returns the process Load would freeze, neither frozen nor
// forked: the reference every fork must be bit-identical to.
func LoadProcess(img *image.Image, seed uint64, obs *telemetry.Observer) (*Process, error) {
	return load(img, seed, obs)
}
