package attack

import (
	"reflect"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/vm"
)

// Section 8.2: backward-edge CFI (a shadow stack) is orthogonal to R2C —
// it kills every return-address corruption outright but does not stop
// AOCR's forward-edge whole-function reuse.

func TestShadowStackPreservesBehaviour(t *testing.T) {
	m := Victim()
	base, _, err := sim.Run(m, defense.Off(), 1, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sim.Run(m, defense.CFIShadowStack(), 1, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Output, got.Output) {
		t.Fatal("shadow stack changed behaviour")
	}
	// And combined with full R2C (the paper's "could strengthen each
	// other").
	combo := defense.R2CFull()
	combo.Name = "r2c+shadowstack"
	combo.ShadowStack = true
	got2, _, err := sim.Run(m, combo, 2, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Output, got2.Output) {
		t.Fatal("R2C + shadow stack changed behaviour")
	}
}

func TestShadowStackStopsRAOverwrite(t *testing.T) {
	s, err := NewScenario(testEng, defense.CFIShadowStack(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := s.RACandidates()
	if err != nil {
		t.Fatal(err)
	}
	// Without diversification there is exactly one candidate: the RA.
	if len(cands) != 1 || !s.IsRealRA(cands[0]) {
		t.Fatalf("unexpected candidates under CFI: %d", len(cands))
	}
	// Overwrite it with a valid code address (a classic ROP pivot).
	other := s.Proc.Img.Funcs[SymLogHandler].Start
	if err := s.Write(cands[0].Addr, other); err != nil {
		t.Fatal(err)
	}
	o := s.ResumeOutcomeOnly()
	if o != Detected {
		t.Fatalf("RA overwrite under shadow stack = %v, want detected", o)
	}
	if n := len(s.Forensics); n == 0 || s.Forensics[n-1].Prov.Kind != rt.TrapShadowStack {
		t.Fatalf("forensics = %v, want a shadow-stack trap last", s.Forensics)
	}
}

func TestAOCRBeatsShadowStackAlone(t *testing.T) {
	// The forward-edge gap: AOCR corrupts a function pointer and a default
	// parameter; no return address is touched, so the shadow stack never
	// fires (Section 8.2's CFG-validity caveat).
	wins := 0
	for seed := uint64(1); seed <= 5; seed++ {
		s, err := NewScenario(testEng, defense.CFIShadowStack(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if o := s.AOCR(); o == Success {
			wins++
		}
	}
	if wins < 4 {
		t.Fatalf("AOCR won only %d/5 against shadow-stack-only CFI", wins)
	}
}

func TestShadowStackPlusR2C(t *testing.T) {
	// Combined, AOCR is stopped by R2C's data diversification and RA
	// corruption by the shadow stack — the orthogonality claim.
	combo := defense.R2CFull()
	combo.Name = "r2c+shadowstack"
	combo.ShadowStack = true
	tally := Tally{}
	for seed := uint64(1); seed <= 5; seed++ {
		s, err := NewScenario(testEng, combo, seed)
		if err != nil {
			t.Fatal(err)
		}
		tally.Add(s.AOCR())
	}
	if tally.Success > 0 {
		t.Fatalf("AOCR won against R2C+CFI: %v", &tally)
	}
}
