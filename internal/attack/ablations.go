package attack

import (
	"errors"
	"fmt"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/isa"
	"r2c/internal/rng"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/vm"
)

// This file implements the attacks that justify R2C's design decisions
// (Sections 4.1, 5.2): what an attacker gains when a design property is
// violated. Each ablation attack runs against both the weakened and the
// real configuration; the experiments assert the weakened one falls.

// pause holds newScenario's extra controls: an optional BTRA re-roll before
// execution (the dynamic-BTRA ablation) and an optional required caller of
// the paused helper frame (for the per-callee ablation, which must observe
// two distinct call sites).
type pause struct {
	reroll     bool
	rerollSeed uint64
	caller     string
}

// newScenario builds and pauses a victim through eng (nil: exec.New(1,
// nil), which records nothing). observe attaches eng.Obs to the process and
// the scenario. A re-rolled victim loads a Reroll copy of the cached image,
// which leaves the cached image as it was.
func newScenario(eng *exec.Engine, cfg defense.Config, seed uint64, observe bool, p pause) (*Scenario, error) {
	if eng == nil {
		eng = exec.New(1, nil)
	}
	var obs *telemetry.Observer
	if observe {
		obs = eng.Obs
	}
	m := victimModule()
	img, _, err := eng.Cache.Image(m, cfg, seed, nil, nil)
	if err != nil {
		return nil, err
	}
	if p.reroll {
		if img, err = img.Reroll(p.rerollSeed); err != nil {
			return nil, err
		}
	}
	proc, err := sim.NewProcessFromImage(img, seed, obs)
	if err != nil {
		return nil, err
	}
	mach := vm.New(proc, vm.EPYCRome())
	helperPF := proc.Img.Funcs[SymHelper]
	paused := false
	for steps := 0; steps < 2048; steps++ {
		// Vary the step so sampling cannot alias with the request loop's
		// period (a fixed stride could stroboscopically skip helper).
		budget := uint64(4001 + (steps*613)%1777)
		_, err = mach.Run(budget)
		if !errors.Is(err, vm.ErrFuelExhausted) {
			return nil, fmt.Errorf("attack: victim finished before pausing: %v", err)
		}
		pc := mach.CPU.PC
		if pc < helperPF.Start || pc >= helperPF.End {
			continue
		}
		if p.caller != "" {
			frames, err := proc.Unwind(pc, mach.CPU.R[isa.RSP], 3)
			if err != nil || len(frames) < 2 || frames[1].FuncName != p.caller {
				continue
			}
		}
		paused = true
		break
	}
	if !paused {
		return nil, fmt.Errorf("attack: could not pause victim inside %s (caller %q)", SymHelper, p.caller)
	}
	refImg, _, err := eng.Cache.Image(m, cfg, seed+0x5eed, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Cfg:      cfg,
		Proc:     proc,
		Mach:     mach,
		RefImg:   refImg,
		Rnd:      rng.New(seed ^ 0xa77ac4e2),
		Obs:      obs,
		baseSeed: seed,
		eng:      eng,
	}, nil
}

// CandidateRuns returns every contiguous run of code-range values found in
// a two-page stack leak, innermost frame first — one run per frame's
// return-address band.
func (s *Scenario) CandidateRuns() ([][]Leaked, error) {
	leaks, err := s.LeakStack(2 * 4096)
	if err != nil {
		return nil, err
	}
	cl := s.Classify(leaks)
	if cl.Text == nil {
		return nil, nil
	}
	var runs [][]Leaked
	var cur []Leaked
	for _, l := range leaks {
		if cl.textRange(l.Value) {
			cur = append(cur, l)
			continue
		}
		if len(cur) > 0 {
			runs = append(runs, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		runs = append(runs, cur)
	}
	return runs, nil
}

// DynamicBTRAAttack demonstrates why property (B) of Section 4.1 — a call
// site's BTRA set must not change at run time — matters: with dynamic sets,
// two observations of the same call site differ only in the decoys, so
// intersecting them isolates the return address ("just two observations
// suffice to identify the return address"). Against compliant R2C the
// intersection keeps every candidate and yields nothing.
//
// It returns the number of candidates surviving the intersection and
// whether a unique survivor is the real return address.
func DynamicBTRAAttack(eng *exec.Engine, cfg defense.Config, seed uint64) (remaining int, isRA bool, err error) {
	s1, err := unobserved(eng, cfg, seed)
	if err != nil {
		return 0, false, err
	}
	c1, err := s1.RACandidates()
	if err != nil {
		return 0, false, err
	}

	// Second observation of the same worker: with dynamic BTRAs the decoy
	// sets re-randomize between invocations (the runtime re-roll), while
	// the return address necessarily stays.
	s2, err := newScenario(eng, cfg, seed, false, pause{reroll: cfg.InsecureDynamicBTRAs, rerollSeed: seed ^ 0xd15ea5e})
	if err != nil {
		return 0, false, err
	}
	c2, err := s2.RACandidates()
	if err != nil {
		return 0, false, err
	}

	in2 := make(map[uint64]bool, len(c2))
	for _, l := range c2 {
		in2[l.Value] = true
	}
	var common []Leaked
	for _, l := range c1 {
		if in2[l.Value] {
			common = append(common, l)
		}
	}
	if len(common) == 1 {
		return 1, s1.IsRealRA(common[0]), nil
	}
	return len(common), false, nil
}

// CalleeBTRAAttack demonstrates property (C) of Section 4.1: if BTRA sets
// were chosen per callee, two call sites calling the same function would
// share all decoys and differ only in their return addresses — leaking two
// frames of the same callee reveals both RAs by set difference. With
// per-call-site sets the difference contains nearly everything and carries
// no signal.
//
// It returns the size of the symmetric difference of the two innermost
// candidate runs and whether every differing value is a real RA.
func CalleeBTRAAttack(eng *exec.Engine, cfg defense.Config, seed uint64) (uniques int, allRAs bool, err error) {
	s1, err := newScenario(eng, cfg, seed, false, pause{caller: SymValidate})
	if err != nil {
		return 0, false, err
	}
	s2, err := newScenario(eng, cfg, seed, false, pause{caller: SymProcess2})
	if err != nil {
		return 0, false, err
	}
	c1, err := s1.RACandidates()
	if err != nil {
		return 0, false, err
	}
	c2, err := s2.RACandidates()
	if err != nil {
		return 0, false, err
	}
	in1 := map[uint64]bool{}
	for _, l := range c1 {
		in1[l.Value] = true
	}
	in2 := map[uint64]bool{}
	for _, l := range c2 {
		in2[l.Value] = true
	}
	var unique []Leaked
	for _, l := range c1 {
		if !in2[l.Value] {
			unique = append(unique, l)
		}
	}
	for _, l := range c2 {
		if !in1[l.Value] {
			unique = append(unique, l)
		}
	}
	if len(unique) == 0 {
		return 0, false, nil
	}
	all := true
	for _, l := range unique {
		if !s1.IsRealRA(l) && !s2.IsRealRA(l) {
			all = false
		}
	}
	return len(unique), all, nil
}

// NaiveBTDPArrayAttack demonstrates the Figure 5 hardening: with the BTDP
// array in the data section, the attacker intersects data-section words
// with stack heap-cluster values and discards matches, leaving only benign
// heap pointers to dereference. It returns how many stack heap-cluster
// pointers survive the filter and how many of them are BTDPs (ground
// truth): with the naive layout no BTDP survives, so the attacker
// dereferences safely; with the hardened layout the filter removes nothing
// and the traps stay live.
func NaiveBTDPArrayAttack(eng *exec.Engine, cfg defense.Config, seed uint64) (kept, keptBTDPs int, err error) {
	s, err := unobserved(eng, cfg, seed)
	if err != nil {
		return 0, 0, err
	}
	leaks, err := s.LeakStack(2 * 4096)
	if err != nil {
		return 0, 0, err
	}
	cl := s.Classify(leaks)
	if cl.Heap == nil {
		return 0, 0, nil
	}
	// The attacker reached the data section via AOCR stage B; the
	// experiment shortcuts to the region directly.
	bannerDS := s.Proc.Img.DataSyms[SymBanner]
	lo, hi, ok := s.Region(bannerDS.Addr)
	if !ok {
		return 0, 0, nil
	}
	inData := map[uint64]bool{}
	for addr := lo; addr+8 <= hi; addr += 8 {
		w, err := s.Read(addr)
		if err != nil {
			return 0, 0, err
		}
		if cl.Heap.Contains(w.Value) {
			inData[w.Value] = true
		}
	}
	for _, v := range dedup(cl.Heap.Values) {
		if inData[v] {
			continue // filtered: occurs both in the data section and on the stack
		}
		kept++
		if s.IsBTDP(v) {
			keptBTDPs++
		}
	}
	return kept, keptBTDPs, nil
}
