// Package bench contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation (Section 6): Table 1 (component
// overheads), Table 2 (call frequencies), Figure 6 (full-R2C overhead on
// four machines), the webserver throughput experiment (Section 6.2.4), the
// memory-overhead experiment (Section 6.2.5), the offset-invariant
// addressing measurement (Section 6.2.1), the AVX-512 variant (Section
// 7.1), and the scalability experiment (Section 6.3).
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/stats"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// Options control experiment size.
type Options struct {
	// Scale divides workload iteration counts (1 = calibrated full size).
	Scale int
	// Runs is the number of differently-seeded builds per measurement; the
	// paper takes medians over repeated runs with fresh seeds.
	Runs int
	// Out receives the printed table (may be nil).
	Out io.Writer
	// Obs receives telemetry from every build and run the experiment
	// performs (counters, trap/fault events, optional function profiles).
	// Nil disables collection; the measured cycle counts are identical
	// either way.
	Obs *telemetry.Observer
	// Jobs is the worker-pool width used when Eng is nil (0 = GOMAXPROCS,
	// 1 = serial). Reported numbers are byte-identical at any width.
	Jobs int
	// Eng is the execution engine (bounded worker pool + content-addressed
	// build cache) the experiments fan their simulation cells through. Nil
	// makes each experiment construct its own from Jobs/Obs; the cmd
	// harnesses share one engine across experiments so identical
	// (module, config, seed) builds memoize across tables and figures.
	Eng *exec.Engine
	// Ctx cancels the whole sweep (the cmd harnesses wire Ctrl-C/SIGTERM
	// here); nil means context.Background(). Per-cell deadlines are the
	// engine's CellTimeout, not this.
	Ctx context.Context
}

// ctx returns the sweep context, never nil.
func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// withEngine returns opt with Eng populated, constructing a default engine
// from Jobs/Obs when the caller did not supply a shared one.
func (o Options) withEngine() Options {
	if o.Eng == nil {
		o.Eng = exec.New(o.Jobs, o.Obs)
	}
	return o
}

func (o Options) scale() int {
	if o.Scale < 1 {
		return 1
	}
	return o.Scale
}

func (o Options) runs() int {
	if o.Runs < 1 {
		return 3
	}
	return o.Runs
}

func (o Options) printf(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format, args...)
	}
}

// cellsFor plans one run group: `runs` cells over m/cfg/prof with the
// historical seed schedule seedBase + i*1000003.
func cellsFor(m *tir.Module, cfg defense.Config, prof *vm.Profile, runs int, seedBase uint64) []exec.Cell {
	cells := make([]exec.Cell, runs)
	for i := range cells {
		cells[i] = exec.Cell{Module: m, Cfg: cfg, Seed: seedBase + uint64(i)*1000003, Prof: prof}
	}
	return cells
}

// medianCycles reduces one run group's results to the median modeled cycle
// count over the runs that survived — failed cells leave nil slots under
// partial-failure tolerance. ok is false when no run survived.
func medianCycles(results []*vm.Result) (float64, bool) {
	cycles := make([]float64, 0, len(results))
	for _, res := range results {
		if res != nil {
			cycles = append(cycles, res.Cycles)
		}
	}
	m, err := stats.MedianErr(cycles)
	return m, err == nil
}

// fmtRatio renders a ratio/percent cell with the given verb, or "n/a" for
// the NaN a skipped (failed or baseline-less) measurement leaves behind.
func fmtRatio(format string, v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf(format, v)
}

// Overheads holds per-benchmark overhead ratios for one configuration.
type Overheads struct {
	Config  string
	ByBench map[string]float64 // ratio, e.g. 1.06
}

// Geomean returns the geometric mean ratio across benchmarks. Benchmarks are
// folded in sorted name order: float accumulation is order-sensitive, and a
// map-range order here would make repeated runs differ in the last bits.
// Ratios a partially-failed sweep marked unusable (NaN or non-positive) are
// excluded; with none left the geomean itself is NaN ("n/a" in tables)
// instead of a panic.
func (o *Overheads) Geomean() float64 {
	names := make([]string, 0, len(o.ByBench))
	for n := range o.ByBench {
		names = append(names, n)
	}
	sort.Strings(names)
	xs := make([]float64, 0, len(names))
	for _, n := range names {
		if v := o.ByBench[n]; !math.IsNaN(v) && v > 0 {
			xs = append(xs, v)
		}
	}
	g, err := stats.GeoMeanErr(xs)
	if err != nil {
		return math.NaN()
	}
	return g
}

// Max returns the maximum ratio and the benchmark it occurs on. NaN
// (skipped) ratios are ignored; with no usable ratio at all it returns
// ("", NaN).
func (o *Overheads) Max() (string, float64) {
	bestN, bestV := "", math.NaN()
	names := make([]string, 0, len(o.ByBench))
	for n := range o.ByBench {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v := o.ByBench[n]; !math.IsNaN(v) && (math.IsNaN(bestV) || v > bestV) {
			bestN, bestV = n, v
		}
	}
	return bestN, bestV
}

// MeasureOverheads computes per-benchmark overhead ratios of each config
// against the unprotected baseline on the given machine profile. All
// (benchmark × config × run) cells are planned up front and fanned through
// the execution engine; results merge in submission order, so the measured
// ratios are byte-identical at every pool width.
func MeasureOverheads(cfgs []defense.Config, prof *vm.Profile, opt Options) ([]Overheads, error) {
	opt = opt.withEngine()
	start := time.Now()
	defer func() {
		opt.Obs.LogHist("bench.measure.seconds", telemetry.LatencyScheme, "machine", prof.Name).Observe(time.Since(start).Seconds())
	}()
	specs := workload.SPEC()
	runs := opt.runs()

	// Plan the flat cell list: every benchmark's baseline group first, then
	// one group per (config, benchmark), preserving the historical seed
	// schedule (base 17 for baselines, 31 for configs, stride 1000003).
	type cellMeta struct {
		bench, cfg string
		baseline   bool
	}
	var cells []exec.Cell
	var metas []cellMeta
	addGroup := func(m *tir.Module, bench string, cfg defense.Config, seedBase uint64, baseline bool) {
		cells = append(cells, cellsFor(m, cfg, prof, runs, seedBase)...)
		for i := 0; i < runs; i++ {
			metas = append(metas, cellMeta{bench: bench, cfg: cfg.Name, baseline: baseline})
		}
	}
	modules := make(map[string]*tir.Module)
	for _, b := range specs {
		m := b.Build(opt.scale())
		modules[b.Name] = m
		addGroup(m, b.Name, defense.Off(), 17, true)
	}
	for _, cfg := range cfgs {
		for _, b := range specs {
			addGroup(modules[b.Name], b.Name, cfg, 31, false)
		}
	}

	results, err := opt.Eng.RunCells(opt.ctx(), cells)
	if err != nil {
		if cerr := opt.ctx().Err(); cerr != nil {
			return nil, cerr // the whole run was cancelled; no partial tables
		}
		be, ok := exec.AsBatchError(err)
		if !ok {
			i, cause := exec.SplitError(err)
			mt := metas[i]
			inner := fmt.Errorf("%s: %w", mt.cfg, cause)
			if mt.baseline {
				return nil, fmt.Errorf("%s baseline: %w", mt.bench, inner)
			}
			return nil, fmt.Errorf("%s %s: %w", mt.bench, mt.cfg, inner)
		}
		// Partial failure: report every dead cell, then compute whatever
		// the survivors support. The caller still sees the *BatchError so
		// harnesses can reflect the failure in their exit code.
		for _, f := range be.Failures {
			mt := metas[f.Index]
			if mt.baseline {
				opt.printf("warning: %s baseline run failed: %v\n", mt.bench, f.Err)
			} else {
				opt.printf("warning: %s %s run failed: %v\n", mt.bench, mt.cfg, f.Err)
			}
		}
	}

	// Reduce each run group to its median, skipping groups with no
	// survivors or an unusable (zero-cycle) baseline: their ratios become
	// NaN, which the table printers render as "n/a".
	base := make(map[string]float64)
	off := 0
	for _, b := range specs {
		med, ok := medianCycles(results[off : off+runs])
		if !ok {
			opt.printf("warning: %s: no surviving baseline runs; its ratios are n/a\n", b.Name)
			med = math.NaN()
		} else if med <= 0 {
			opt.printf("warning: %s: zero-cycle baseline; its ratios are n/a\n", b.Name)
			med = math.NaN()
		}
		base[b.Name] = med
		off += runs
	}
	var out []Overheads
	for _, cfg := range cfgs {
		ov := Overheads{Config: cfg.Name, ByBench: map[string]float64{}}
		for _, b := range specs {
			med, ok := medianCycles(results[off : off+runs])
			ratio := math.NaN()
			if ok && !math.IsNaN(base[b.Name]) {
				if r, rerr := stats.OverheadErr(med, base[b.Name]); rerr == nil {
					ratio = r
				}
			} else if !ok && err == nil {
				// Unreachable without a BatchError; keep the warning in
				// case a future path produces empty groups silently.
				opt.printf("warning: %s %s: no surviving runs\n", b.Name, cfg.Name)
			}
			ov.ByBench[b.Name] = ratio
			off += runs
		}
		out = append(out, ov)
	}
	return out, err
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Name         string
	Max, Geomean float64 // ratios, paper prints e.g. 1.21 / 1.06
}

// Table1 regenerates Table 1: the maximum and geometric-mean overhead of
// R2C's components (Push, AVX, BTDP, Prolog, Layout), measured on the EPYC
// Rome profile like the paper's component analysis (Section 6.2).
func Table1(opt Options) ([]Table1Row, error) {
	cfgs := defense.Components()
	ovs, err := MeasureOverheads(cfgs, vm.EPYCRome(), opt)
	if ovs == nil {
		return nil, err
	}
	label := map[string]string{
		"btra-push": "Push", "btra-avx": "AVX", "btdp": "BTDP",
		"prolog": "Prolog", "layout": "Layout",
	}
	var rows []Table1Row
	opt.printf("Table 1: component overheads (relative to baseline)\n")
	opt.printf("%-8s %6s %9s\n", "", "max", "geomean")
	for _, ov := range ovs {
		_, max := ov.Max()
		r := Table1Row{Name: label[ov.Config], Max: max, Geomean: ov.Geomean()}
		rows = append(rows, r)
		publishHeadline(opt.Obs, "bench.table1.geomean_pct", stats.Pct(r.Geomean), "component", r.Name)
		publishHeadline(opt.Obs, "bench.table1.max_pct", stats.Pct(r.Max), "component", r.Name)
		opt.printf("%-8s %6s %9s\n", r.Name, fmtRatio("%.2f", r.Max), fmtRatio("%.2f", r.Geomean))
	}
	return rows, err
}

// publishHeadline records one deterministic experiment headline (a geomean
// overhead, a scaled call count) as a gauge, the series the perf baselines
// harvest. NaN — a partially-failed sweep's "n/a" — is skipped rather than
// published: a baseline should either carry a real number or omit the
// metric so a later -compare reports it as missing.
func publishHeadline(obs *telemetry.Observer, name string, v float64, labels ...string) {
	if math.IsNaN(v) {
		return
	}
	obs.Gauge(name, labels...).Set(v)
}

// Table2Row is one row of Table 2.
type Table2Row struct {
	Benchmark string
	// Measured is the median executed-call count in the simulation;
	// Scaled is Measured / CallScale, the Table 2 magnitude.
	Measured uint64
	Scaled   uint64
	Paper    uint64
}

// Table2 regenerates Table 2: median executed call frequencies per
// benchmark (call instructions only; tail calls are jumps and excluded,
// Section 7.1). Each benchmark is run with several inputs — seeds vary the
// synthetic input data — and the median is reported. The workloads always
// run at their calibrated full size here (a baseline-only run is cheap and
// several benchmarks have a fixed-size hot loop that cannot scale down).
func Table2(opt Options) ([]Table2Row, error) {
	opt = opt.withEngine()
	specs := workload.SPEC()
	runs := opt.runs()
	var cells []exec.Cell
	for _, b := range specs {
		m := b.Build(1)
		for i := 0; i < runs; i++ {
			// Different seeds act as different inputs.
			cells = append(cells, exec.Cell{Module: m, Cfg: defense.Off(), Seed: 100 + uint64(i)*77, Prof: vm.EPYCRome()})
		}
	}
	results, err := opt.Eng.RunCells(opt.ctx(), cells)
	if err != nil {
		if cerr := opt.ctx().Err(); cerr != nil {
			return nil, cerr
		}
		be, ok := exec.AsBatchError(err)
		if !ok {
			i, cause := exec.SplitError(err)
			return nil, fmt.Errorf("%s: %w", specs[i/runs].Name, cause)
		}
		for _, f := range be.Failures {
			opt.printf("warning: %s run failed: %v\n", specs[f.Index/runs].Name, f.Err)
		}
	}
	var rows []Table2Row
	opt.printf("Table 2: median call frequencies (scaled to paper magnitude)\n")
	opt.printf("%-10s %15s %18s %18s\n", "benchmark", "measured", "scaled", "paper")
	for bi, b := range specs {
		counts := make([]uint64, 0, runs)
		for i := 0; i < runs; i++ {
			if res := results[bi*runs+i]; res != nil {
				counts = append(counts, res.Calls)
			}
		}
		if len(counts) == 0 {
			opt.printf("%-10s %15s %18s %18d\n", b.Name, "n/a", "n/a", b.PaperCalls)
			continue
		}
		med := stats.MedianU64(counts)
		row := Table2Row{
			Benchmark: b.Name,
			Measured:  med,
			Scaled:    uint64(float64(med) / workload.CallScale),
			Paper:     b.PaperCalls,
		}
		rows = append(rows, row)
		publishHeadline(opt.Obs, "bench.table2.calls", float64(row.Measured), "benchmark", row.Benchmark)
		opt.printf("%-10s %15d %18d %18d\n", row.Benchmark, row.Measured, row.Scaled, row.Paper)
	}
	return rows, err
}

// Figure6Series is the full-R2C overhead series for one machine.
type Figure6Series struct {
	Machine string
	ByBench map[string]float64 // percent overhead
	Geomean float64            // percent
}

// Figure6 regenerates Figure 6: full R2C (all protections, BTRAs also on
// calls to unprotected code) on the four machine profiles. The paper's
// geomean band is 6.6–8.5%.
func Figure6(opt Options) ([]Figure6Series, error) {
	// One engine for all four machines: the modeled machines share builds
	// (compile+link is machine-independent), so after the first profile every
	// build is a cache hit.
	opt = opt.withEngine()
	var out []Figure6Series
	var firstErr error
	for _, prof := range vm.AllMachines() {
		ovs, err := MeasureOverheads([]defense.Config{defense.R2CFull()}, prof, opt)
		if ovs == nil {
			return nil, fmt.Errorf("%s: %w", prof.Name, err)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", prof.Name, err)
		}
		s := Figure6Series{Machine: prof.Name, ByBench: map[string]float64{}}
		names := make([]string, 0, len(ovs[0].ByBench))
		for n := range ovs[0].ByBench {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s.ByBench[n] = stats.Pct(ovs[0].ByBench[n])
		}
		s.Geomean = stats.Pct(ovs[0].Geomean())
		publishHeadline(opt.Obs, "bench.figure6.geomean_pct", s.Geomean, "machine", s.Machine)
		for n, pct := range s.ByBench {
			publishHeadline(opt.Obs, "bench.figure6.overhead_pct", pct, "machine", s.Machine, "benchmark", n)
		}
		out = append(out, s)
	}
	opt.printf("Figure 6: full R2C performance impact (%%)\n%-10s", "benchmark")
	for _, s := range out {
		opt.printf(" %12s", s.Machine)
	}
	opt.printf("\n")
	for _, b := range workload.SPEC() {
		opt.printf("%-10s", b.Name)
		for _, s := range out {
			opt.printf(" %12s", fmtRatio("%.1f", s.ByBench[b.Name]))
		}
		opt.printf("\n")
	}
	opt.printf("%-10s", "geomean")
	for _, s := range out {
		opt.printf(" %12s", fmtRatio("%.1f", s.Geomean))
	}
	opt.printf("\n")
	return out, firstErr
}

// OIAResult is the offset-invariant addressing measurement.
type OIAResult struct {
	GeomeanPct, MaxPct float64
	MaxBench           string
}

// OIA regenerates the offset-invariant addressing measurement of Section
// 6.2.1 (paper: 0.79% geomean, 3.61% max): OIA enabled, everything else
// off, so the cost is rbp bookkeeping at stack-argument call sites plus the
// lost frame-pointer omission.
func OIA(opt Options) (*OIAResult, error) {
	ovs, err := MeasureOverheads([]defense.Config{defense.OIAOnly()}, vm.EPYCRome(), opt)
	if err != nil {
		return nil, err
	}
	name, max := ovs[0].Max()
	r := &OIAResult{
		GeomeanPct: stats.Pct(ovs[0].Geomean()),
		MaxPct:     stats.Pct(max),
		MaxBench:   name,
	}
	publishHeadline(opt.Obs, "bench.oia.geomean_pct", r.GeomeanPct)
	publishHeadline(opt.Obs, "bench.oia.max_pct", r.MaxPct)
	opt.printf("Offset-invariant addressing alone: geomean %.2f%%, max %.2f%% (%s)\n",
		r.GeomeanPct, r.MaxPct, r.MaxBench)
	return r, nil
}

// AVX512Result compares the AVX2 and AVX-512 BTRA setups (Section 7.1).
type AVX512Result struct {
	AVX2GeomeanPct      float64
	AVX512GeomeanPct    float64 // same 10 BTRAs, wider moves
	AVX512x20GeomeanPct float64 // twice the BTRAs in the same move count
}

// AVX512 regenerates the Section 7.1 claim: with the same number of vector
// moves, AVX-512 performance is roughly identical to AVX2, and one can use
// twice as many BTRAs for a similar cost.
func AVX512(opt Options) (*AVX512Result, error) {
	avx2 := defense.BTRAAVXOnly()
	avx512 := defense.BTRAAVX512()
	avx512x2 := defense.BTRAAVX512()
	avx512x2.Name = "btra-avx512x20"
	avx512x2.BTRAsPerCall = 20
	ovs, err := MeasureOverheads([]defense.Config{avx2, avx512, avx512x2}, vm.Xeon8358(), opt)
	if err != nil {
		return nil, err
	}
	r := &AVX512Result{
		AVX2GeomeanPct:      stats.Pct(ovs[0].Geomean()),
		AVX512GeomeanPct:    stats.Pct(ovs[1].Geomean()),
		AVX512x20GeomeanPct: stats.Pct(ovs[2].Geomean()),
	}
	publishHeadline(opt.Obs, "bench.avx512.geomean_pct", r.AVX2GeomeanPct, "setup", "avx2-10")
	publishHeadline(opt.Obs, "bench.avx512.geomean_pct", r.AVX512GeomeanPct, "setup", "avx512-10")
	publishHeadline(opt.Obs, "bench.avx512.geomean_pct", r.AVX512x20GeomeanPct, "setup", "avx512-20")
	opt.printf("AVX2 10 BTRAs: %.2f%%  AVX-512 10 BTRAs: %.2f%%  AVX-512 20 BTRAs: %.2f%%\n",
		r.AVX2GeomeanPct, r.AVX512GeomeanPct, r.AVX512x20GeomeanPct)
	return r, nil
}
