//go:build !race

package rt_test

// raceEnabled reports whether this test binary was built with the race
// detector; see race_enabled_test.go for the counterpart.
const raceEnabled = false
