package bench

import (
	"fmt"
	"sort"

	"r2c/internal/attack"
	"r2c/internal/defense"
	"r2c/internal/stats"
	"r2c/internal/vm"
)

// Verdict condenses Monte-Carlo attack outcomes into a Table 3 cell.
type Verdict int

const (
	// Protected: the attack never succeeded.
	Protected Verdict = iota
	// Partial: the attack sometimes succeeds (probabilistic residual
	// surface, like PIROP vs R2C — Section 7.3).
	Partial
	// Vulnerable: the attack succeeds reliably.
	Vulnerable
)

func (v Verdict) String() string {
	switch v {
	case Protected:
		return "●"
	case Partial:
		return "◐"
	case Vulnerable:
		return "○"
	}
	return "?"
}

func verdictOf(t *attack.Tally) Verdict {
	switch r := t.SuccessRate(); {
	case r == 0:
		return Protected
	case r >= 0.5:
		return Vulnerable
	default:
		return Partial
	}
}

// MatrixRow is one defense's row of Table 3.
type MatrixRow struct {
	Defense     string
	OverheadPct float64
	Cxx         bool
	ROP         Verdict
	JITROP      Verdict
	PIROP       Verdict
	AOCR        Verdict
	// Tallies keeps the raw outcome counts per attack for the appendix.
	Tallies map[string]*attack.Tally
	// DetectionRate is the fraction of attempts (across all attacks) that
	// detonated a booby trap — the reactive component's yield.
	DetectionRate float64
	// Forensics holds the per-trial detection evidence (which trap class
	// caught which probe), in (attack, trial) order; PrintForensics renders
	// it when the harness runs with -forensics.
	Forensics []TrialForensics
}

// TrialForensics is one Monte-Carlo trial's detection evidence.
type TrialForensics struct {
	Attack  string
	Trial   int
	Outcome attack.Outcome
	Hits    []attack.ForensicHit
}

// table3Configs returns the Table 3 rows in order.
func table3Configs() []defense.Config {
	cfgs := defense.Baselines()
	return append(cfgs, defense.R2CFull())
}

// Table3 regenerates Table 3: each related defense and R2C versus the four
// attack classes, with overheads measured on our own workload suite (the
// paper quotes the respective original papers' SPEC numbers; rerunning them
// under one methodology is the fairer comparison its caption wishes for).
func Table3(opt Options, trials int, withOverheads bool) ([]MatrixRow, error) {
	if trials <= 0 {
		trials = 10
	}
	opt = opt.withEngine()
	var rows []MatrixRow
	for _, cfg := range table3Configs() {
		row := MatrixRow{Defense: cfg.Name, Cxx: cfg.SupportsCxx, Tallies: map[string]*attack.Tally{}}
		attacks := []struct {
			name string
			run  func(*attack.Scenario) attack.Outcome
		}{
			{"rop", (*attack.Scenario).ROP},
			{"jitrop", func(s *attack.Scenario) attack.Outcome {
				// Worst case of direct and indirect JIT-ROP.
				if o := s.JITROP(); o == attack.Success {
					return o
				}
				return s.IndirectJITROP()
			}},
			{"pirop", nil}, // handled specially: persistent retries
			{"aocr", (*attack.Scenario).AOCR},
		}
		detections, total := 0, 0
		for _, a := range attacks {
			// Each trial is an independent campaign against a fresh victim
			// (its own seed, scenario and RNG), so the Monte-Carlo loop fans
			// across the pool; outcomes land in per-trial slots and are
			// tallied in trial order.
			a := a
			outcomes := make([]attack.Outcome, trials)
			evidence := make([][]attack.ForensicHit, trials)
			err := opt.Eng.MapTracked(opt.ctx(), trials, cfg.Name+"/"+a.name, func(i int) error {
				seed := uint64(1000*i+7) + uint64(len(rows))*31
				if a.run == nil { // PIROP: persistent across worker restarts
					outcomes[i], evidence[i] = attack.PIROPPersistentForensic(opt.Eng, cfg, seed, 12)
					return nil
				}
				s, err := attack.NewScenario(opt.Eng, cfg, seed)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", cfg.Name, a.name, err)
				}
				// Incident records correlate per (defense, attack) campaign
				// with the Monte-Carlo trial index.
				s.Campaign = "table3/" + cfg.Name + "/" + a.name
				s.Trial = i
				outcomes[i] = a.run(s)
				evidence[i] = s.Forensics
				return nil
			})
			if err != nil {
				return nil, err
			}
			tally := &attack.Tally{}
			for i, o := range outcomes {
				tally.Add(o)
				row.Forensics = append(row.Forensics, TrialForensics{
					Attack: a.name, Trial: i, Outcome: o, Hits: evidence[i],
				})
			}
			row.Tallies[a.name] = tally
			detections += tally.Detected
			total += tally.Trials()
		}
		row.ROP = verdictOf(row.Tallies["rop"])
		row.JITROP = verdictOf(row.Tallies["jitrop"])
		row.PIROP = verdictOf(row.Tallies["pirop"])
		row.AOCR = verdictOf(row.Tallies["aocr"])
		row.DetectionRate = float64(detections) / float64(total)
		publishHeadline(opt.Eng.Obs, "bench.table3.detection_rate", row.DetectionRate, "defense", row.Defense)
		rows = append(rows, row)
	}

	if withOverheads {
		var cfgs []defense.Config
		for _, c := range table3Configs() {
			cfgs = append(cfgs, c)
		}
		ovs, err := MeasureOverheads(cfgs, vm.EPYCRome(), opt)
		if err != nil {
			return nil, err
		}
		for i := range rows {
			rows[i].OverheadPct = stats.Pct(ovs[i].Geomean())
		}
	}

	opt.printf("Table 3: defense comparison (● protected  ◐ partial  ○ vulnerable)\n")
	opt.printf("%-12s %9s %4s %5s %8s %6s %5s %7s\n", "defense", "overhead", "C++", "ROP", "JIT-ROP", "PIROP", "AOCR", "detect%")
	for _, r := range rows {
		opt.printf("%-12s %8.1f%% %4v %5s %8s %6s %5s %6.0f%%\n",
			r.Defense, r.OverheadPct, r.Cxx, r.ROP, r.JITROP, r.PIROP, r.AOCR, r.DetectionRate*100)
	}
	return rows, nil
}

// PrintForensics renders the trap-provenance table behind the r2cattack
// -forensics flag: for every trial that ended in detection, which trap class
// caught the probe and which planted artifact (call-site BTRA slot, guard
// page, prolog trap) the attacker touched, followed by a per-class summary.
func PrintForensics(opt Options, rows []MatrixRow) {
	opt.printf("\ntrap provenance forensics (detected trials):\n")
	opt.printf("%-12s %-7s %5s  %s\n", "defense", "attack", "trial", "caught by")
	byClass := map[string]int{}
	hits := 0
	for _, r := range rows {
		for _, tf := range r.Forensics {
			for j, h := range tf.Hits {
				byClass[h.Prov.Kind.String()]++
				hits++
				if j == 0 {
					opt.printf("%-12s %-7s %5d  %s\n", r.Defense, tf.Attack, tf.Trial, h)
				} else {
					opt.printf("%-12s %-7s %5s  %s\n", "", "", "", h)
				}
			}
		}
	}
	if hits == 0 {
		opt.printf("(no detections)\n")
		return
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	opt.printf("trap classes:")
	for _, c := range classes {
		opt.printf(" %s=%d", c, byClass[c])
	}
	opt.printf(" (total %d hits)\n", hits)
}

// ProbPoint is one measurement of the BTRA guessing experiment.
type ProbPoint struct {
	R          int     // BTRAs per call site
	PerFrame   float64 // measured single-RA success rate
	Analytic   float64 // 1/(R+1)
	Chain4     float64 // measured^4 (n=4 chain)
	Analytic4  float64 // (1/(R+1))^4
	FramePicks int
}

// Prob regenerates the Section 7.2.1 analysis empirically: an attacker
// picking uniformly among each frame's return-address candidates succeeds
// per frame with probability ≈ 1/(R+1); a four-address ROP chain therefore
// succeeds with (1/(R+1))^4 ≈ 0.00007 for R=10.
func Prob(opt Options, trials int) ([]ProbPoint, error) {
	if trials <= 0 {
		trials = 60
	}
	opt = opt.withEngine()
	var out []ProbPoint
	for _, R := range []int{2, 5, 10} {
		cfg := defense.R2CFull()
		cfg.Name = fmt.Sprintf("r2c-%dbtras", R)
		cfg.BTRAsPerCall = R
		// Each trial's picks come from its own seeded scenario RNG, so the
		// trials parallelize; per-trial counts are summed in trial order.
		type trialCount struct{ hits, picks int }
		counts := make([]trialCount, trials)
		err := opt.Eng.MapTracked(opt.ctx(), trials, cfg.Name, func(i int) error {
			s, err := attack.NewScenario(opt.Eng, cfg, uint64(i)*97+3)
			if err != nil {
				return err
			}
			runs, err := s.CandidateRuns()
			if err != nil {
				return err
			}
			// The four innermost protected frames: helper, validate,
			// process, serve.
			n := 4
			if len(runs) < n {
				n = len(runs)
			}
			for _, run := range runs[:n] {
				pick := run[s.Rnd.Intn(len(run))]
				counts[i].picks++
				if s.IsRealRA(pick) {
					counts[i].hits++
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		hits, picks := 0, 0
		for _, c := range counts {
			hits += c.hits
			picks += c.picks
		}
		p := float64(hits) / float64(picks)
		pt := ProbPoint{
			R:          R,
			PerFrame:   p,
			Analytic:   1 / float64(R+1),
			Chain4:     p * p * p * p,
			Analytic4:  stats.BTRAGuessProbability(R, 4),
			FramePicks: picks,
		}
		out = append(out, pt)
		opt.printf("R=%2d: per-frame success %.4f (analytic %.4f), 4-chain %.2e (analytic %.2e), %d picks\n",
			pt.R, pt.PerFrame, pt.Analytic, pt.Chain4, pt.Analytic4, pt.FramePicks)
	}
	return out, nil
}

// SideChannelResult summarizes the Section 7.3 remaining-attack-surface
// demonstration.
type SideChannelResult struct {
	StaticAttempts   int
	StaticIdentified bool
	FreshIdentified  bool
}

// SideChannel demonstrates the crash side channel of Section 7.3: against a
// worker pool that restarts without re-randomizing, zeroing return-address
// candidates one restart at a time identifies the real return address in at
// most R+1 restarts; load-time re-randomization (fresh seed per restart)
// defeats the accumulation.
func SideChannel(opt Options) (*SideChannelResult, error) {
	opt = opt.withEngine()
	cfg := defense.R2CFull()
	s, err := attack.NewScenario(opt.Eng, cfg, 42)
	if err != nil {
		return nil, err
	}
	attempts, identified, _ := s.CrashSideChannel(16, false)

	s2, err := attack.NewScenario(opt.Eng, cfg, 43)
	if err != nil {
		return nil, err
	}
	_, freshIdentified, _ := s2.CrashSideChannel(16, true)

	r := &SideChannelResult{
		StaticAttempts:   attempts,
		StaticIdentified: identified,
		FreshIdentified:  freshIdentified,
	}
	opt.printf("crash side channel (Section 7.3): static layout identified RA after %d restarts: %v; with load-time re-randomization: %v\n",
		r.StaticAttempts, r.StaticIdentified, r.FreshIdentified)
	return r, nil
}
