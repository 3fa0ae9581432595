// Command r2cattack is the security harness: it regenerates the paper's
// security artifacts — Table 3 (defense comparison against ROP, JIT-ROP,
// PIROP and AOCR), the BTRA guessing probabilities of Section 7.2.1, the
// crash side-channel demonstration of Section 7.3, and the design-decision
// ablations of Sections 4.1 and 5.2 (dynamic BTRA sets, callee-chosen BTRA
// sets, the naive in-data BTDP array). `r2cattack -h` lists the flags and
// experiments.
package main

import (
	"fmt"
	"io"
	"os"

	"r2c/internal/attack"
	"r2c/internal/bench"
	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/harness"
	"r2c/internal/incident"
	"r2c/internal/mvee"
	"r2c/internal/telemetry"
	"r2c/internal/vm"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	h := harness.New("r2cattack", "<experiment>", stdout, stderr, harness.Ops|harness.Artifacts|harness.Engine|harness.PerfGate)
	trials := h.Flags.Int("trials", 10, "Monte-Carlo trials per defense/attack cell")
	jobs := h.Flags.Int("jobs", 0, "parallel trials/simulation cells (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	overheads := h.Flags.Bool("overheads", false, "also measure Table 3 overhead column (slow)")
	forensics := h.Flags.Bool("forensics", false, "with table3: print the per-trial trap provenance table (which trap class caught each probe) and the incident correlation summary; implies -flight 64 unless set")
	h.Params = []string{"trials"}

	var opt bench.Options
	h.Experiments = []harness.Experiment{
		{Name: "table3", Run: func() error {
			rows, err := bench.Table3(opt, *trials, *overheads)
			if err == nil && *forensics {
				bench.PrintForensics(opt, rows)
				incident.WriteSummary(stdout, incident.Correlate(h.Incidents.Records()))
			}
			return err
		}},
		{Name: "prob", Run: func() error { _, err := bench.Prob(opt, 6**trials); return err }},
		{Name: "sidechannel", Run: func() error { _, err := bench.SideChannel(opt); return err }},
		{Name: "sidechannel-hardened", Run: func() error { return sideChannelHardened(stdout, h.Eng) }},
		{Name: "bruteforce", Run: func() error { return bruteforce(stdout, h.Eng) }},
		{Name: "ablations", Run: func() error { return ablations(stdout, h.Eng) }},
		{Name: "aocr", Run: func() error { return aocrDemo(stdout, h.Eng) }},
		{Name: "mvee", Run: func() error { return mveeDemo(stdout, h.Incidents) }},
	}
	return h.Main(args, func() error {
		// -forensics wants the control-flow tail that led to each
		// detonation, and the incident log it correlates.
		if *forensics {
			if !h.Explicit("flight") {
				h.Flags.Set("flight", "64")
			}
			h.Incidents = incident.NewLog()
		}
		if err := h.Open(*jobs, false); err != nil {
			return err
		}
		h.SampleCells()
		if err := h.Serve(telemetry.OpsSources{}); err != nil {
			return err
		}
		// Every scenario builds its victim and reference through the
		// engine's cache, collapsing the Monte-Carlo campaigns' repeated
		// same-seed rebuilds to one compile+link each, and reports its
		// detections into the engine's incident log.
		opt = bench.Options{Scale: 4, Runs: 1, Out: stdout, Eng: h.Eng, Ctx: h.Ctx}
		return h.RunExperiments()
	})
}

// mveeDemo runs the Section 7.3 MVEE extension: two R2C variants in
// lockstep; a replicated memory corruption diverges and is detected.
func mveeDemo(w io.Writer, ilog *incident.Log) error {
	fmt.Fprintln(w, "MVEE extension (Section 7.3): two diversified variants in lockstep")
	e, err := mvee.New(attack.Victim(), defense.R2CFull(), 2, 42, vm.EPYCRome())
	if err != nil {
		return err
	}
	e.Incidents = ilog
	v, err := e.Run(0, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  benign run: diverged=%v trapped=%v (variants agree bit-for-bit)\n", v.Diverged, v.Trapped)

	e2, err := mvee.New(attack.Victim(), defense.R2CFull(), 2, 42, vm.EPYCRome())
	if err != nil {
		return err
	}
	e2.Incidents = ilog
	img := e2.Variants[0].Proc.Img
	e2.CorruptAll(img.DataSyms[attack.SymSecretKey].Addr, attack.MagicArg)
	e2.CorruptAll(img.DataSyms[attack.SymAdminPtr].Addr, img.Funcs[attack.SymSecretFunc].Start)
	v2, err := e2.Run(0, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  corrupted run: detected=%v (%s)\n", v2.Detected(), v2.Reason)
	return nil
}

// sideChannelHardened reruns the Section 7.3 side channel against the
// proposed BTRA consistency checks.
func sideChannelHardened(w io.Writer, eng *exec.Engine) error {
	cfg := defense.R2CFull()
	cfg.Name = "r2c-btra-checks"
	cfg.CheckBTRAsOnReturn = true
	detections := 0
	trials := 30
	for seed := uint64(1); seed <= uint64(trials); seed++ {
		s, err := attack.NewScenario(eng, cfg, seed)
		if err != nil {
			return err
		}
		cands, err := s.RACandidates()
		if err != nil {
			return err
		}
		// One zeroing probe per campaign, as the side channel does; the
		// topmost candidate is always a pre-offset BTRA, the kind the
		// post-return check samples (one random slot per call site, so
		// each probe is caught with probability ≈ 1/pre).
		if err := s.Write(cands[len(cands)-1].Addr, 0); err != nil {
			return err
		}
		if o := s.Resume(); o == attack.Detected {
			detections++
		}
	}
	fmt.Fprintf(w, "BTRA consistency checks (Section 7.3 hardening): %d/%d zeroing probes detected (expected ≈ trials/pre)\n",
		detections, trials)
	return nil
}

// bruteforce runs the Section 4.1 Blind ROP and Section 7.2.3 heap feng
// shui experiments.
func bruteforce(w io.Writer, eng *exec.Engine) error {
	fmt.Fprintln(w, "Blind ROP stop-gadget scan against a restarting worker (Section 4.1):")
	for _, cfg := range []defense.Config{defense.Off(), defense.R2CFull()} {
		r, err := attack.BlindROP(eng, cfg, 31, 12)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  vs %-10s: %d probes, gadget found=%v, booby-trap alarms=%d\n",
			cfg.Name, r.Probes, r.FoundGadget, r.Detections)
	}
	fmt.Fprintln(w, "heap feng shui pairing filter (Section 7.2.3):")
	r, err := attack.FengShui(eng, defense.R2CFull(), 5, 4096)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  vs r2c-full  : kept %d paired pointers, %d safe, %d still BTDPs\n",
		r.PairsFound, r.SafePicks, r.BTDPPicks)
	return nil
}

// aocrDemo narrates one full AOCR attack against the unprotected baseline
// and against full R2C.
func aocrDemo(w io.Writer, eng *exec.Engine) error {
	fmt.Fprintln(w, "AOCR whole-function-reuse demo (Section 2.3 attack chain)")
	for _, cfg := range []defense.Config{defense.Off(), defense.R2CFull()} {
		tally := attack.Tally{}
		for seed := uint64(1); seed <= 8; seed++ {
			s, err := attack.NewScenario(eng, cfg, seed)
			if err != nil {
				return err
			}
			tally.Add(s.AOCR())
		}
		fmt.Fprintf(w, "  vs %-10s: %v\n", cfg.Name, &tally)
	}
	return nil
}

// ablations demonstrates the design-decision attacks.
func ablations(w io.Writer, eng *exec.Engine) error {
	fmt.Fprintln(w, "Design-decision ablations (Sections 4.1, 5.2)")

	// Property B: dynamic BTRA sets fall to two observations.
	bad := defense.R2CFull()
	bad.Name = "r2c-dynamic-btras"
	bad.InsecureDynamicBTRAs = true
	for _, cfg := range []defense.Config{defense.R2CFull(), bad} {
		rem, isRA, err := attack.DynamicBTRAAttack(eng, cfg, 11)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  property B  vs %-22s: %2d candidates after intersection, RA identified: %v\n",
			cfg.Name, rem, isRA)
	}

	// Property C: per-callee BTRA sets fall to a two-call-site diff.
	bad2 := defense.R2CFull()
	bad2.Name = "r2c-callee-btras"
	bad2.InsecureCalleeBTRAs = true
	for _, cfg := range []defense.Config{defense.R2CFull(), bad2} {
		uniq, allRA, err := attack.CalleeBTRAAttack(eng, cfg, 13)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  property C  vs %-22s: %2d values differ between call sites, all real RAs: %v\n",
			cfg.Name, uniq, allRA)
	}

	// Figure 5: the naive in-data BTDP array lets the attacker filter
	// BTDPs out; the hardened layout does not.
	naive := defense.R2CFull()
	naive.Name = "r2c-naive-btdp-array"
	naive.BTDPNaiveDataArray = true
	for _, cfg := range []defense.Config{defense.R2CFull(), naive} {
		kept, keptBTDPs, err := attack.NaiveBTDPArrayAttack(eng, cfg, 17)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  figure 5    vs %-22s: attacker keeps %2d heap pointers, %2d of them are still BTDPs\n",
			cfg.Name, kept, keptBTDPs)
	}
	return nil
}
