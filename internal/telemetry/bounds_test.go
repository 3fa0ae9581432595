package telemetry

import (
	"math"
	"testing"
)

// checkBoundBits fails unless bounds are exactly the pinned IEEE-754 bit
// patterns. Committed baselines and metrics files bucket by these values,
// so any change in how they are generated (math.Pow instead of repeated
// multiplication, a rounded growth constant) would silently re-bucket them.
func checkBoundBits(t *testing.T, name string, bounds []float64, want []uint64) {
	t.Helper()
	if len(bounds) != len(want) {
		t.Fatalf("%s: %d bounds, want %d", name, len(bounds), len(want))
	}
	for i, b := range bounds {
		if got := math.Float64bits(b); got != want[i] {
			t.Errorf("%s[%d] = %v (%#016x), want %v (%#016x)", name, i, b, got, math.Float64frombits(want[i]), want[i])
		}
	}
}

// TestDefaultBoundsGolden pins the default latency and cycle bounds bit for
// bit: 10µs and 1k cycles growing by 10^(1/4), 28 and 36 bounds.
func TestDefaultBoundsGolden(t *testing.T) {
	checkBoundBits(t, "LatencyBounds", LatencyBounds, []uint64{
		0x3ee4f8b588e368f1, 0x3ef2a5884e341e83, 0x3f009456549be1bd, 0x3f0d7b9e14a91d46,
		0x3f1a36e2eb1c432c, 0x3f274eea61c12623, 0x3f34b96be9c2da2b, 0x3f426d42cce9b24b,
		0x3f50624dd2f1a9fb, 0x3f5d22a4fa316faa, 0x3f69e7c6e43390b5, 0x3f77089380241edd,
		0x3f847ae147ae1479, 0x3f9235a71c5ee5ca, 0x3fa030dc4ea03a71, 0x3faccab8602d2694,
		0x3fb9999999999997, 0x3fc6c310e3769f3c, 0x3fd43d136248490c, 0x3fe1feb33c1c381b,
		0x3feffffffffffffa, 0x3ffc73d51c544709, 0x40094c583ada5b4e, 0x40167e600b234621,
		0x4023fffffffffffc, 0x4031c86531b4ac65, 0x403f9f6e4990f220, 0x404c1df80dec17a8,
	})
	checkBoundBits(t, "CycleBounds", CycleBounds, []uint64{
		0x408f400000000000, 0x409bc91e1daa4d64, 0x40a8b48e29793d2f, 0x40b5f769cae07281,
		0x40c3880000000000, 0x40d15db2d28a705e, 0x40dee1b1b3d78c79, 0x40eb75443d988f20,
		0x40f869ffffffffff, 0x4105b51f872d0c75, 0x41134d0f1066b7cb, 0x4121294aa67f5973,
		0x412e847ffffffffd, 0x413b226768f84f91, 0x41482052d48065bd, 0x4155739d501f2fcf,
		0x416312cffffffffd, 0x4170f580a19b31b9, 0x417e286789a07f2a, 0x418ad084a426fbc1,
		0x4197d783fffffffb, 0x41a532e0ca01fe27, 0x41b2d940b6044f7a, 0x41c0c252e6985d58,
		0x41cdcd64fffffff9, 0x41da7f98fc827db0, 0x41e78f90e3856358, 0x41f4f2e7a03e74ae,
		0x4202a05f1ffffffc, 0x42108fbf9dd18e8e, 0x421d73751c66bc2d, 0x422a2fa1884e11d9,
		0x42374876e7fffffa, 0x4244b3af8545f231, 0x4252682931c0359c, 0x42605dc4f530cb27,
	})
}
