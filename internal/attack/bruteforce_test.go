package attack

import (
	"testing"

	"r2c/internal/defense"
)

func TestBlindROPAgainstR2CRaisesAlarms(t *testing.T) {
	res, err := BlindROP(testEng, defense.R2CFull(), 31, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Probing blind against R2C must detonate traps: the text section is
	// salted with booby-trap functions and prolog traps (Section 4.1).
	if res.Detections == 0 {
		t.Fatalf("no detections across %d blind probes: %+v", res.Probes, res)
	}
	t.Logf("blind ROP vs R2C: %+v", res)
}

func TestBlindROPAgainstUndefendedWorker(t *testing.T) {
	// Against a worker with no traps at all, blind probing is silent: no
	// detections, and some probe eventually lands on a survivable
	// instruction (the Blind ROP premise).
	res, err := BlindROP(testEng, defense.Off(), 7, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections != 0 {
		t.Fatalf("undefended worker produced detections: %+v", res)
	}
}

func TestFengShuiFiltersLessUnderR2C(t *testing.T) {
	const maxDelta = 4096 // the victim's two objects are allocated together
	// Without BTDPs every kept pointer is trivially safe; the question is
	// how much the pairing filter helps against R2C's poisoned cluster.
	r2c, err := FengShui(testEng, defense.R2CFull(), 5, maxDelta)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("feng shui vs R2C: %+v", r2c)
	// The paper grants that this refinement can identify some benign
	// pairs; the experiment's point is that it is not a clean separator:
	// either almost nothing pairs up (the filter starves) or BTDPs leak
	// into the kept set (guard pages also cluster). Either way the
	// attacker keeps fewer certainly-safe pointers than the plain cluster
	// contains.
	s, err := NewScenario(testEng, defense.R2CFull(), 5)
	if err != nil {
		t.Fatal(err)
	}
	leaks, err := s.LeakStack(2 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	cl := s.Classify(leaks)
	total := len(dedup(cl.Heap.Values))
	if r2c.PairsFound >= total {
		t.Fatalf("feng shui filter kept everything (%d of %d)", r2c.PairsFound, total)
	}
}
