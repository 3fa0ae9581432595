package attack

import (
	"testing"

	"r2c/internal/defense"
	"r2c/internal/sim"
	"r2c/internal/vm"
)

func TestVictimRunsCleanly(t *testing.T) {
	res, _, err := sim.Run(Victim(), defense.Off(), 1, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	if HasWin(res.Output) {
		t.Fatal("victim won without an attack")
	}
	// The benign dispatch result must appear.
	found := false
	for _, w := range res.Output {
		if w == NormalResult {
			found = true
		}
	}
	if !found {
		t.Fatalf("benign dispatch missing from output %v", res.Output)
	}
	// And under full R2C it behaves identically.
	res2, _, err := sim.Run(Victim(), defense.R2CFull(), 2, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Output) != len(res.Output) {
		t.Fatalf("output length diverged: %d vs %d", len(res2.Output), len(res.Output))
	}
}

func TestScenarioPausesInHelper(t *testing.T) {
	for _, cfg := range []defense.Config{defense.Off(), defense.R2CFull()} {
		s, err := NewScenario(testEng, cfg, 5)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		pf := s.Proc.Img.FuncAt(s.Mach.CPU.PC)
		if pf == nil || pf.F.Name != SymHelper {
			t.Fatalf("%s: paused in %v, want helper", cfg.Name, pf)
		}
	}
}

func TestRACandidatesBaselineIsExact(t *testing.T) {
	s, err := NewScenario(testEng, defense.Off(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := s.RACandidates()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("baseline candidates = %d, want exactly 1 (the RA)", len(cands))
	}
	if !s.IsRealRA(cands[0]) {
		t.Fatalf("baseline candidate %#x is not the RA", cands[0].Value)
	}
}

func TestRACandidatesUnderR2C(t *testing.T) {
	cfg := defense.R2CFull()
	s, err := NewScenario(testEng, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := s.RACandidates()
	if err != nil {
		t.Fatal(err)
	}
	// helper's band: pre+1+post ≈ BTRAsPerCall+1 (plus alignment padding).
	if len(cands) < cfg.BTRAsPerCall {
		t.Fatalf("candidates = %d, want ≈ %d", len(cands), cfg.BTRAsPerCall+1)
	}
	real, btras := 0, 0
	for _, c := range cands {
		if s.IsRealRA(c) {
			real++
		}
		if s.IsBTRA(c) {
			btras++
		}
	}
	if real != 1 {
		t.Fatalf("real RAs in band = %d, want 1 (property A)", real)
	}
	if btras < cfg.BTRAsPerCall-2 {
		t.Fatalf("BTRAs in band = %d, want ≈ %d", btras, cfg.BTRAsPerCall)
	}
}

func TestClassifyFindsRegions(t *testing.T) {
	s, err := NewScenario(testEng, defense.R2CFull(), 11)
	if err != nil {
		t.Fatal(err)
	}
	leaks, err := s.LeakStack(2 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	cl := s.Classify(leaks)
	if cl.Text == nil {
		t.Fatal("no text cluster")
	}
	if cl.Heap == nil {
		t.Fatal("no heap cluster")
	}
	// Oracle: the heap cluster must actually cover the victim's heap.
	base, brk := s.Proc.Heap.Bounds()
	if cl.Heap.Lo < base-(64<<20) || cl.Heap.Hi > brk+(64<<20) {
		t.Fatalf("heap cluster [%#x,%#x] does not match heap [%#x,%#x]",
			cl.Heap.Lo, cl.Heap.Hi, base, brk)
	}
	// Under R2C the heap cluster must contain BTDPs (the poisoning).
	btdps := 0
	for _, v := range cl.Heap.Values {
		if s.IsBTDP(v) {
			btdps++
		}
	}
	if btdps == 0 {
		t.Fatal("no BTDPs mixed into the heap cluster")
	}
}

func TestAOCRSucceedsAgainstBaseline(t *testing.T) {
	wins := 0
	for seed := uint64(1); seed <= 5; seed++ {
		s, err := NewScenario(testEng, defense.Off(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if o := s.AOCR(); o == Success {
			wins++
		} else {
			t.Logf("seed %d: %v", seed, o)
		}
	}
	if wins < 4 {
		t.Fatalf("AOCR against unprotected baseline won only %d/5", wins)
	}
}

func TestAOCRAgainstR2C(t *testing.T) {
	tally := Tally{}
	for seed := uint64(1); seed <= 10; seed++ {
		s, err := NewScenario(testEng, defense.R2CFull(), seed)
		if err != nil {
			t.Fatal(err)
		}
		tally.Add(s.AOCR())
	}
	t.Logf("AOCR vs R2C: %v", &tally)
	if tally.Success > 0 {
		t.Fatalf("AOCR succeeded against full R2C: %v", &tally)
	}
	if tally.Detected == 0 {
		t.Fatalf("no booby trap detections across 10 AOCR attempts: %v", &tally)
	}
}

func TestROPMatrixEndpoints(t *testing.T) {
	// Classic ROP: wins against the baseline, loses against R2C.
	s, err := NewScenario(testEng, defense.Off(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if o := s.ROP(); o != Success {
		t.Fatalf("ROP vs baseline = %v, want success", o)
	}
	fails := 0
	for seed := uint64(1); seed <= 5; seed++ {
		s, err := NewScenario(testEng, defense.R2CFull(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if o := s.ROP(); o != Success {
			fails++
		}
	}
	if fails < 5 {
		t.Fatalf("ROP vs R2C succeeded %d/5 times", 5-fails)
	}
}

func TestJITROPStoppedByXOnly(t *testing.T) {
	s, err := NewScenario(testEng, defense.Off(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if o := s.JITROP(); o != Success {
		t.Fatalf("JIT-ROP vs baseline = %v, want success", o)
	}
	s2, err := NewScenario(testEng, defense.R2CFull(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if o := s2.JITROP(); o == Success {
		t.Fatal("JIT-ROP read execute-only text")
	}
}
