package incident

import (
	"math"
	"testing"
)

// TestGapBoundsGolden pins the inter-probe gap bounds bit for bit (1 growing
// by 10^(1/2), 16 bounds), so the gap quantiles in committed incident
// timelines cannot move under a change in how the bounds are generated.
func TestGapBoundsGolden(t *testing.T) {
	want := []uint64{
		0x3ff0000000000000, 0x40094c583ada5b53, 0x4024000000000001, 0x403f9f6e4990f229,
		0x4059000000000002, 0x4073c3a4edfa975a, 0x408f400000000003, 0x40a8b48e29793d31,
		0x40c3880000000002, 0x40dee1b1b3d78c7e, 0x40f86a0000000003, 0x41134d0f1066b7cf,
		0x412e848000000005, 0x41482052d48065c4, 0x416312d000000004, 0x417e286789a07f36,
	}
	if len(GapBounds) != len(want) {
		t.Fatalf("%d gap bounds, want %d", len(GapBounds), len(want))
	}
	for i, b := range GapBounds {
		if got := math.Float64bits(b); got != want[i] {
			t.Errorf("GapBounds[%d] = %v (%#016x), want %v (%#016x)", i, b, got, math.Float64frombits(want[i]), want[i])
		}
	}
}
