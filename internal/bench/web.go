package bench

import (
	"fmt"

	"r2c/internal/defense"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/stats"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// WebResult holds one server/machine throughput measurement.
type WebResult struct {
	Server     string
	Machine    string
	BaseRPS    float64
	R2CRPS     float64
	DeficitPct float64 // throughput decrease in percent
}

// webRun measures requests/second for one build. Requests per run and the
// connection-saturation sweep collapse to a single saturated run in the
// simulator: the VM is the single saturated core, so throughput is just
// requests over modeled time. On machines where the paper shares cores
// between wrk and the server (the 8-core i9-9900K), context-switch
// pollution is modeled by flushing the i-cache once per request.
func webRun(opt Options, m *tir.Module, cfg defense.Config, prof *vm.Profile, seed uint64, requests float64) (float64, error) {
	res, _, err := runCell(opt, m, cfg, seed, prof, func(mach *vm.Machine) {
		if prof.Cores <= 8 {
			mach.FlushICacheEvery = 5400 // ≈ every few requests
		}
	})
	if err != nil {
		return 0, err
	}
	return requests / res.Seconds(prof), nil
}

// runCell loads a fresh process of the engine's cached (m, cfg, seed) build,
// lets tune (when non-nil) arm the machine's knobs, and runs it to its end
// under opt's context and the engine's observer.
func runCell(opt Options, m *tir.Module, cfg defense.Config, seed uint64, prof *vm.Profile, tune func(*vm.Machine)) (*vm.Result, *rt.Process, error) {
	proc, err := opt.Eng.Cache.Process(m, cfg, seed, opt.Eng.Obs)
	if err != nil {
		return nil, nil, err
	}
	mach := vm.New(proc, prof)
	if tune != nil {
		tune(mach)
	}
	res, err := sim.ExecMachine(opt.ctx(), mach, opt.Eng.Obs, nil, 0)
	return res, proc, err
}

// Webserver regenerates the Section 6.2.4 experiment: nginx and Apache
// throughput under full R2C versus baseline, on the Intel i9-9900K and the
// AMD EPYC Rome profiles. Paper: −13% (nginx) and −12% (Apache) on i9,
// −3..4% on the AMD machines. Each number is the median of five runs.
func Webserver(opt Options) ([]WebResult, error) {
	opt = opt.withEngine()
	requests := float64(workload.WebRequests / opt.scale())
	runs := opt.runs()
	if runs < 5 {
		runs = 5 // the paper uses the median of five runs
	}
	profs := []*vm.Profile{vm.I99900K(), vm.EPYCRome()}
	servers := []string{"nginx", "apache"}

	// Flatten to independent tasks (webRun needs a custom machine setup, so
	// these go through the pool directly rather than as engine cells).
	type webTask struct {
		prof     *vm.Profile
		server   string
		m        *tir.Module
		cfg      defense.Config
		seed     uint64
		baseline bool
	}
	var tasks []webTask
	for _, prof := range profs {
		for _, server := range servers {
			b, _ := workload.ByName(server)
			m := b.Build(opt.scale())
			for i := 0; i < runs; i++ {
				seed := uint64(41 + i*131)
				tasks = append(tasks,
					webTask{prof, server, m, defense.Off(), seed, true},
					webTask{prof, server, m, defense.R2CFull(), seed + 7, false})
			}
		}
	}
	rps := make([]float64, len(tasks))
	err := opt.Eng.MapTracked(opt.ctx(), len(tasks), "webserver", func(i int) error {
		t := &tasks[i]
		r, err := webRun(opt, t.m, t.cfg, t.prof, t.seed, requests)
		if err != nil {
			kind := "r2c"
			if t.baseline {
				kind = "baseline"
			}
			return fmt.Errorf("%s %s: %w", t.server, kind, err)
		}
		rps[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	var out []WebResult
	idx := 0
	for _, prof := range profs {
		for _, server := range servers {
			var base, prot []float64
			for i := 0; i < runs; i++ {
				base = append(base, rps[idx])
				prot = append(prot, rps[idx+1])
				idx += 2
			}
			mb2, mp := stats.Median(base), stats.Median(prot)
			r := WebResult{
				Server:     server,
				Machine:    prof.Name,
				BaseRPS:    mb2,
				R2CRPS:     mp,
				DeficitPct: (1 - mp/mb2) * 100,
			}
			out = append(out, r)
			opt.printf("%-8s on %-10s: baseline %10.0f req/s, R2C %10.0f req/s, deficit %5.1f%%\n",
				r.Server, r.Machine, r.BaseRPS, r.R2CRPS, r.DeficitPct)
		}
	}
	return out, nil
}

// MemResult summarizes the Section 6.2.5 memory-overhead experiment.
type MemResult struct {
	// SPECMaxrssMinPct/MaxPct bound the per-benchmark maxrss overhead
	// (paper: 1–3%).
	SPECMaxrssMinPct, SPECMaxrssMaxPct float64
	// SPECSampledPct is the sampled-RSS cross-check of Section 7.1 ("only
	// a few percent").
	SPECSampledPct float64
	// WebOverheadPct is the webserver sampled-RSS overhead (paper ≈100%).
	WebOverheadPct float64
	// WebBTDPSharePct is the fraction of that overhead attributable to
	// BTDP guard pages (paper ≈55%).
	WebBTDPSharePct float64
}

// Memory regenerates the memory-overhead experiment with both of the
// paper's methodologies: the maxrss rusage metric for SPEC, and a sampled
// median RSS (the separate monitoring process) for the webservers, where
// child-process maxrss would mislead.
func Memory(opt Options) (*MemResult, error) {
	opt = opt.withEngine()
	res := &MemResult{SPECMaxrssMinPct: 1e9}
	specs := workload.SPEC()
	type memRow struct {
		maxrssPct, sampledPct float64
	}
	memRows := make([]memRow, len(specs))
	err := opt.Eng.MapTracked(opt.ctx(), len(specs), "memory", func(i int) error {
		b := specs[i]
		m := b.Build(opt.scale())
		base, _, err := runCell(opt, m, defense.Off(), 3, vm.EPYCRome(), nil)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		full, _, err := runCell(opt, m, defense.R2CFull(), 5, vm.EPYCRome(), nil)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		// Sampled-RSS methodology cross-check (the builds are cache hits —
		// same module content, config and seed as the maxrss runs above).
		bs, _, err2 := sampledMedianRSS(opt, m, defense.Off(), 3)
		fs, _, err3 := sampledMedianRSS(opt, m, defense.R2CFull(), 5)
		if err2 != nil || err3 != nil {
			return fmt.Errorf("%s sampling: %v %v", b.Name, err2, err3)
		}
		memRows[i] = memRow{
			maxrssPct:  (float64(full.MaxRSSBytes)/float64(base.MaxRSSBytes) - 1) * 100,
			sampledPct: (fs/bs - 1) * 100,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var sampled []float64
	for i, b := range specs {
		pct := memRows[i].maxrssPct
		if pct < res.SPECMaxrssMinPct {
			res.SPECMaxrssMinPct = pct
		}
		if pct > res.SPECMaxrssMaxPct {
			res.SPECMaxrssMaxPct = pct
		}
		sampled = append(sampled, memRows[i].sampledPct)
		opt.printf("%-10s maxrss %+5.1f%%  sampled %+5.1f%%\n", b.Name, pct, memRows[i].sampledPct)
	}
	res.SPECSampledPct = stats.Median(sampled)

	// Webservers: sampled median RSS plus guard-page attribution.
	bng, _ := workload.ByName("nginx")
	m := bng.Build(opt.scale())
	base, _, err := sampledMedianRSS(opt, m, defense.Off(), 9)
	if err != nil {
		return nil, err
	}
	prot, protProc, err := sampledMedianRSS(opt, m, defense.R2CFull(), 11)
	if err != nil {
		return nil, err
	}
	res.WebOverheadPct = (prot/base - 1) * 100
	guardBytes := float64(len(protProc.GuardPages)) * 4096
	res.WebBTDPSharePct = guardBytes / (prot - base) * 100

	opt.printf("SPEC maxrss overhead: %.1f%% – %.1f%% (sampled-RSS median %.1f%%)\n",
		res.SPECMaxrssMinPct, res.SPECMaxrssMaxPct, res.SPECSampledPct)
	opt.printf("webserver sampled-RSS overhead: %.0f%% (%.0f%% of it BTDP guard pages)\n",
		res.WebOverheadPct, res.WebBTDPSharePct)
	return res, nil
}

// sampledMedianRSS runs one build on the i9 profile with the RSS monitor
// sampling every 50k instructions and returns the median sample (maxrss when
// the run ended before the first sample) and the process it ran.
func sampledMedianRSS(opt Options, m *tir.Module, cfg defense.Config, seed uint64) (float64, *rt.Process, error) {
	r, proc, err := runCell(opt, m, cfg, seed, vm.I99900K(), func(mach *vm.Machine) { mach.SampleEvery = 50_000 })
	if err != nil {
		return 0, nil, err
	}
	if len(r.RSSSamples) == 0 {
		return float64(r.MaxRSSBytes), proc, nil
	}
	var xs []float64
	for _, s := range r.RSSSamples {
		xs = append(xs, float64(s))
	}
	return stats.Median(xs), proc, nil
}

// ScaleResult summarizes the Section 6.3 scalability experiment.
type ScaleResult struct {
	Funcs       int
	TirInstrs   int
	TextKB      uint64
	TextGrowPct float64
	OutputOK    bool
}

// Scale regenerates the scalability experiment: compile a browser-scale
// synthetic module under full R2C, verify it runs correctly, and report
// the size handled (the paper compiles WebKit and Chromium, Section 6.3).
func Scale(opt Options, funcs int) (*ScaleResult, error) {
	// The engine's build cache matters most here: the browser-scale module is
	// by far the most expensive compile, and the measurement run plus the
	// size-inspection process share one build per config instead of two.
	opt = opt.withEngine()
	m := workload.BrowserScale(funcs)
	st := m.Stats()
	base, baseProc, err := runCell(opt, m, defense.Off(), 1, vm.Xeon8358(), nil)
	if err != nil {
		return nil, err
	}
	full, fullProc, err := runCell(opt, m, defense.R2CFull(), 1, vm.Xeon8358(), nil)
	if err != nil {
		return nil, err
	}
	ok := len(base.Output) == len(full.Output)
	for i := range base.Output {
		ok = ok && base.Output[i] == full.Output[i]
	}
	r := &ScaleResult{
		Funcs:       st.Funcs,
		TirInstrs:   st.Instrs,
		TextKB:      fullProc.Img.TextSize() / 1024,
		TextGrowPct: (float64(fullProc.Img.TextSize())/float64(baseProc.Img.TextSize()) - 1) * 100,
		OutputOK:    ok,
	}
	opt.printf("scalability: %d functions, %d TIR instrs, %d KiB protected text (+%.0f%%), correct=%v\n",
		r.Funcs, r.TirInstrs, r.TextKB, r.TextGrowPct, r.OutputOK)
	return r, nil
}
