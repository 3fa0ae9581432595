package attack

import (
	"reflect"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/vm"
)

// checkedConfig is full R2C plus the Section 7.3 hardening.
func checkedConfig() defense.Config {
	c := defense.R2CFull()
	c.Name = "r2c-btra-checks"
	c.CheckBTRAsOnReturn = true
	return c
}

func TestBTRAChecksPreserveBehaviour(t *testing.T) {
	m := Victim()
	base, _, err := sim.Run(m, defense.Off(), 1, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sim.Run(m, checkedConfig(), 2, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Output, got.Output) {
		t.Fatal("consistency checks changed program behaviour")
	}
}

// TestBTRAChecksCatchCorruptionSpree: zeroing every return-address
// candidate (the brute version of the Section 7.3 side channel) must
// detonate a consistency check when the victim resumes.
func TestBTRAChecksCatchCorruptionSpree(t *testing.T) {
	s, err := NewScenario(testEng, checkedConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := s.RACandidates()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if s.IsBTRA(c) {
			if err := s.Write(c.Addr, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	o := s.ResumeOutcomeOnly()
	if o != Detected {
		t.Fatalf("BTRA corruption spree outcome = %v, want detected", o)
	}
	if n := len(s.Forensics); n == 0 || s.Forensics[n-1].Prov.Kind != rt.TrapBTRACheck {
		t.Fatalf("forensics = %v, want a btra-check trap last", s.Forensics)
	}
}

// TestBTRAChecksDeterSideChannel: the single-candidate zeroing probe of
// Section 7.3 gets detected with probability ≈ 1/pre per affected call
// return; across a probing campaign at least some probes must detonate,
// giving the defender the reactive signal the paper proposes.
func TestBTRAChecksDeterSideChannel(t *testing.T) {
	detections := 0
	for seed := uint64(1); seed <= 12; seed++ {
		s, err := NewScenario(testEng, checkedConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := s.RACandidates()
		if err != nil {
			t.Fatal(err)
		}
		// Zero one BTRA candidate, as the probing attack does.
		var probe *Leaked
		for i := range cands {
			if s.IsBTRA(cands[i]) {
				probe = &cands[i]
				break
			}
		}
		if probe == nil {
			continue
		}
		if err := s.Write(probe.Addr, 0); err != nil {
			t.Fatal(err)
		}
		if o := s.ResumeOutcomeOnly(); o == Detected {
			detections++
		}
	}
	if detections == 0 {
		t.Fatal("no probe detected across 12 campaigns; the hardening is inert")
	}
	t.Logf("probing campaigns detected: %d/12", detections)
}

// TestWithoutChecksSpreeIsSilent contrasts the default configuration: the
// same corruption spree crashes (or passes silently) but is never detected
// as BTRA corruption — the remaining attack surface the paper acknowledges.
func TestWithoutChecksSpreeIsSilent(t *testing.T) {
	s, err := NewScenario(testEng, defense.R2CFull(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := s.RACandidates()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if s.IsBTRA(c) {
			if err := s.Write(c.Addr, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.ResumeOutcomeOnly()
	for _, h := range s.Forensics {
		if h.Prov.Kind == rt.TrapBTRACheck {
			t.Fatal("default config fired a consistency check")
		}
	}
}
