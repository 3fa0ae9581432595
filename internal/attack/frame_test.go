package attack

import (
	"testing"

	"r2c/internal/defense"
)

// refHelperFrame returns the attacker-copy frame geometry of the paused
// function: the offset from the body stack pointer to the return-address
// slot. In a monoculture this is exact; under diversification the victim's
// actual geometry differs (random post-offset, shuffled slots, different
// callee-saved sets).
func (s *Scenario) refHelperFrame() (raOffset uint64, ok bool) {
	pf, ok2 := s.RefImg.Funcs[SymHelper]
	if !ok2 {
		return 0, false
	}
	f := pf.F
	saves := len(f.CalleeSaved)
	return uint64(f.FrameSize) + uint64(saves)*8 + uint64(f.PostOffset)*8, true
}

// TestMonocultureFramePrediction verifies the monoculture premise the
// attacks build on: against an undiversified baseline, the attacker's own
// copy of the binary predicts the victim's return-address slot exactly
// (Figure 2a's "predictable location"); under R2C the same prediction lands
// inside the BTRA band instead.
func TestMonocultureFramePrediction(t *testing.T) {
	s, err := NewScenario(testEng, defense.Off(), 21)
	if err != nil {
		t.Fatal(err)
	}
	off, ok := s.refHelperFrame()
	if !ok {
		t.Fatal("no reference frame info")
	}
	raAddr := s.RSP() + off
	l, err := s.Read(raAddr)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsRealRA(l) {
		t.Fatalf("baseline frame prediction missed: %#x at %#x is not the RA", l.Value, raAddr)
	}

	// Under R2C the prediction is no better than a guess: across seeds it
	// must frequently hit a BTRA or a non-RA word (the victim's post-offset
	// and frame layout differ from the attacker's copy).
	hits := 0
	for seed := uint64(1); seed <= 8; seed++ {
		s2, err := NewScenario(testEng, defense.R2CFull(), seed)
		if err != nil {
			t.Fatal(err)
		}
		off2, ok := s2.refHelperFrame()
		if !ok {
			t.Fatal("no reference frame info")
		}
		l2, err := s2.Read(s2.RSP() + off2)
		if err != nil {
			continue // prediction may even fall off the frame
		}
		if s2.IsRealRA(l2) {
			hits++
		}
	}
	if hits > 4 {
		t.Fatalf("monoculture prediction still works under R2C: %d/8 hits", hits)
	}
}
