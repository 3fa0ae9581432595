// Command r2cperf is the repository's benchmark: four workloads that each
// load a different layer of the R2C toolchain and runtime, measured end to
// end on the host with tracing off, plus a traced replay that splits each
// workload's time by layer. README.md describes the workloads, the metrics
// and how to read the output.
//
// Usage:
//
//	r2cperf [-workload all|NAME[,NAME...]] [-seed N] [-seconds S] [-trace 0|1]
//	        [-jobs N] [-out FILE] [-trace-out FILE]
//	r2cperf compare [-spec BENCHMARK.json] OLD.json NEW.json
//
// Each workload prints its metric table and then one JSON line, the last
// line of its output: {"correct", "attempted", "failed", "metrics"}. With
// -trace 0 the metrics are the end-to-end ones, with -trace 1 the per-layer
// ones. The exit status is 1 when any output check failed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"r2c/internal/telemetry"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions (checked by the tests) and adds the bounds.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the host-time metrics a user of each workload sees. Every
// workload reports every one: work_per_s counts the workload's own unit
// (cells, requests or builds).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, each per round.
var perLayer = []metricDef{
	{"vm.exec.calls", "count", "lower"},
	{"vm.exec.s", "s", "lower"},
	{"vm.exec.minstr_per_s", "Minstr/s", "higher"},
	{"vm.instructions", "count", "lower"},
	{"rt.load.calls", "count", "lower"},
	{"rt.load.s", "s", "lower"},
	{"rt.load.us_per_call", "us", "lower"},
	{"mvee.run.calls", "count", "lower"},
	{"mvee.run.s", "s", "lower"},
	{"tir.build.s", "s", "lower"},
	{"tir.verify.calls", "count", "lower"},
	{"tir.verify.s", "s", "lower"},
	{"codegen.compile.calls", "count", "lower"},
	{"codegen.compile.s", "s", "lower"},
	{"image.link.calls", "count", "lower"},
	{"image.link.self_s", "s", "lower"},
	{"pcode.build.s", "s", "lower"},
	{"pcode.ops", "count", "lower"},
	{"exec.cache.hit_ratio", "ratio", "higher"},
	{"exec.cache.images", "count", "lower"},
	{"exec.pool.busy_frac", "ratio", "higher"},
	{"fleet.serve.s", "s", "lower"},
	{"fleet.loop.self_s", "s", "lower"},
	{"fleet.replace.count", "count", "higher"},
	{"fleet.replace.p50_s", "s", "lower"},
	{"fleet.replace.p90_s", "s", "lower"},
	{"replay.total_s", "s", "lower"},
	{"unattributed_s", "s", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
}

// move records, ahead of any measurement, which end-to-end metric a
// per-layer metric should move and on which workloads; the traced layer
// table prints it beside each layer.
type move struct {
	layer, metric string
	workloads     []string
	note          string
}

var allWorkloads = []string{"figure6", "serve", "serve-mvee-heal", "rediversify"}

var moves = []move{
	{"vm.exec.s", "work_per_s", []string{"figure6"}, "≈97% of figure6, ≈8% of serve, 0 on rediversify"},
	{"rt.load.s", "work_per_s", []string{"serve", "serve-mvee-heal"}, "≈1% of figure6; the rejoin wait also moves fleet.replace.p50_s"},
	{"mvee.run.s", "work_per_s", []string{"serve-mvee-heal"}, "0 on every other workload"},
	{"codegen.compile.s", "work_per_s", []string{"rediversify"}, "figure6 work_per_s should not move: its builds are set-up"},
	{"codegen.compile.s", "setup_s", allWorkloads, ""},
	{"image.link.self_s", "work_per_s", []string{"rediversify"}, ""},
	{"pcode.build.s", "work_per_s", []string{"rediversify"}, ""},
	{"tir.build.s", "setup_s", allWorkloads, ""},
	{"exec.cache.hit_ratio", "setup_s", []string{"figure6"}, ""},
	{"exec.cache.images", "peak_rss_mb", []string{"serve-mvee-heal"}, "one more image per heal"},
	{"exec.pool.busy_frac", "work_per_s", []string{"figure6"}, ""},
	{"fleet.loop.self_s", "work_per_s", []string{"serve"}, ""},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("r2cperf", flag.ExitOnError)
	names := fs.String("workload", "all", "workloads to run: all, or comma-separated names ("+strings.Join(allWorkloads, ", ")+")")
	seed := fs.Uint64("seed", 1, "seed all inputs derive from; seed 1 is checked against recorded digests")
	seconds := fs.Float64("seconds", 25, "measurement window per workload; rounds start until it has passed")
	trace := fs.Int("trace", 0, "1 = traced replay reporting per-layer metrics; 0 = end-to-end metrics")
	jobs := fs.Int("jobs", min(2, runtime.NumCPU()), "worker-pool width of every engine")
	out := fs.String("out", "", "append each workload's run to this results file (see compare)")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the replay's spans to this file as a Chrome trace")
	fs.Parse(os.Args[1:])
	if *trace != 0 && *trace != 1 || *jobs < 1 || *seed < 1 || *seconds < 0 || fs.NArg() > 0 {
		fs.Usage()
		os.Exit(2)
	}
	var ws []workloadDef
	for _, n := range strings.Split(*names, ",") {
		if n == "all" {
			ws = append(ws, workloads...)
			continue
		}
		w, ok := workloadByName(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "r2cperf: unknown workload %q (have %s)\n", n, strings.Join(allWorkloads, ", "))
			os.Exit(2)
		}
		ws = append(ws, w)
	}

	o := options{
		p:       params{seed: *seed, jobs: *jobs, size: fullSize},
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		spans:   *traceOut != "",
	}
	var spans []telemetry.SpanData
	exit := 0
	for _, w := range ws {
		rep, err := measure(context.Background(), w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "r2cperf: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		rec, err := rep.record()
		if err != nil {
			fmt.Fprintf(os.Stderr, "r2cperf: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if err := rep.print(os.Stdout, rec); err != nil {
			fmt.Fprintf(os.Stderr, "r2cperf: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if !rec.Correct {
			exit = 1
		}
		if *out != "" {
			if err := appendResults(*out, rec); err != nil {
				fmt.Fprintf(os.Stderr, "r2cperf: %v\n", err)
				os.Exit(1)
			}
		}
		spans = append(spans, rep.spans...)
	}
	if *traceOut != "" && o.trace {
		if err := writeChrome(*traceOut, spans); err != nil {
			fmt.Fprintf(os.Stderr, "r2cperf: %v\n", err)
			os.Exit(1)
		}
	}
	os.Exit(exit)
}

type options struct {
	p       params
	seconds time.Duration
	trace   bool
	spans   bool // keep every replay span for a Chrome trace
}

// report aggregates one workload's rounds.
type report struct {
	w      workloadDef
	o      options
	rounds int
	wall   time.Duration

	setupS, workPerS  []float64
	units             int
	work              time.Duration
	attempted, failed int
	digests           map[string]string

	// Traced runs only: the untraced and observed legs' work time, the
	// observed leg's engine economy, and the replay's layer totals.
	untraced, observed   time.Duration
	replace              []float64
	hits, misses, images int
	busy, batchWall      time.Duration
	layers               map[string]*layerTotal
	workLayers           map[string]time.Duration
	execInstr, mveeInstr uint64
	ops                  int
	replayTotal          time.Duration
	spans                []telemetry.SpanData
}

// measure runs rounds of w until the window has passed. Every round repeats
// the same inputs, so rounds with equal keys must agree on their digest.
// A traced run repeats each round three times: untraced (the reference
// time), with the program's own telemetry on (the engine economy, and the
// tracing overhead against the first leg), and as a layer-by-layer replay.
func measure(ctx context.Context, w workloadDef, o options) (*report, error) {
	r := &report{w: w, o: o, digests: map[string]string{}, layers: map[string]*layerTotal{}, workLayers: map[string]time.Duration{}}
	for _, l := range layers {
		r.layers[l] = &layerTotal{}
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < o.seconds; round++ {
		// Every round, and every leg of a traced round, starts from a
		// collected heap, so no leg pays for the previous one's garbage.
		runtime.GC()
		var obs *telemetry.Observer
		tap := &rejoinTap{}
		if o.trace {
			obs = &telemetry.Observer{Tracer: tap}
		}
		out, err := w.run(ctx, o.p, round, obs)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		r.rounds++
		r.setupS = append(r.setupS, out.setup.Seconds())
		r.workPerS = append(r.workPerS, float64(out.units)/out.work.Seconds())
		r.units += out.units
		r.work += out.work
		r.count(out)
		if !o.trace {
			continue
		}
		r.untraced += out.work
		r.replace = append(r.replace, tap.samples()...)

		runtime.GC()
		col := &telemetry.SpanCollector{}
		obsOut, err := w.run(ctx, o.p, round, &telemetry.Observer{Registry: telemetry.NewRegistry(), Spans: col})
		if err != nil {
			return nil, fmt.Errorf("round %d observed: %w", round, err)
		}
		r.count(obsOut)
		r.observed += obsOut.work
		r.hits += obsOut.cacheHits
		r.misses += obsOut.cacheMisses
		r.images += obsOut.cacheImages
		engineSpans := col.Spans()
		busy, wall := poolBusy(engineSpans)
		r.busy += busy
		r.batchWall += wall

		runtime.GC()
		replayCol := &telemetry.SpanCollector{}
		rp := newReplayer(replayCol, round)
		err = w.replay(ctx, o.p, round, rp, out)
		rp.finish()
		if err != nil {
			return nil, fmt.Errorf("round %d replay: %w", round, err)
		}
		r.attempted += rp.units
		r.failed += rp.failed
		for l, t := range rp.layers {
			r.layers[l].calls += t.calls
			r.layers[l].d += t.d
		}
		for l, d := range rp.workLayers {
			r.workLayers[l] += d
		}
		r.execInstr += rp.execInstr
		r.mveeInstr += rp.mveeInstr
		r.ops += rp.ops
		r.replayTotal += rp.total
		if o.spans {
			r.spans = append(r.spans, engineSpans...)
			r.spans = append(r.spans, replayCol.Spans()...)
		}
	}
	r.wall = time.Since(start)
	if o.trace && r.w.name == "serve-mvee-heal" && o.p.size == fullSize && len(r.replace) < 100 {
		r.failed++
		fmt.Fprintf(os.Stderr, "r2cperf: check failed: %d time-to-replace samples, a p90 needs 100\n", len(r.replace))
	}
	return r, nil
}

// count adds a round's attempts and failures and checks its digest against
// earlier rounds with the same inputs and, at seed 1, the recorded one.
func (r *report) count(out *roundOut) {
	r.attempted += out.units
	r.failed += out.failed
	key := r.w.name
	if out.key != "" {
		key += "/" + out.key
	}
	if prev, ok := r.digests[key]; ok {
		if prev != out.digest {
			r.failed++
			fmt.Fprintf(os.Stderr, "r2cperf: check failed: %s: digest %s differs from an earlier round's %s\n", key, out.digest, prev)
		}
		return
	}
	r.digests[key] = out.digest
	if r.o.p.recorded() {
		if want := expectedDigests()[key]; want != out.digest {
			r.failed++
			fmt.Fprintf(os.Stderr, "r2cperf: check failed: %s: digest %s, expected.json records %q\n", key, out.digest, want)
		}
	}
}

// poolBusy sums the engine's batch spans (RunCells and BuildImages) and the
// unit spans under them: busy is worker time spent on units, wall the
// batches' elapsed time.
func poolBusy(spans []telemetry.SpanData) (busy, wall time.Duration) {
	batches := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == "exec.batch" || s.Name == "exec.images" {
			batches[s.ID] = true
			wall += time.Duration(s.DurNs)
		}
	}
	for _, s := range spans {
		if (s.Name == "cell" || s.Name == "variant") && batches[s.Parent] {
			busy += time.Duration(s.DurNs)
		}
	}
	return busy, wall
}

// record turns the report into the run's metrics.
func (r *report) record() (runRecord, error) {
	rec := runRecord{
		Workload:  r.w.name,
		Seed:      r.o.p.seed,
		Jobs:      r.o.p.jobs,
		Trace:     r.o.trace,
		Rounds:    r.rounds,
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Digests:   r.digests,
		Metrics:   map[string]float64{},
	}
	if !r.o.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return rec, err
		}
		rec.Metrics["setup_s"] = median(r.setupS)
		// Pooled over the window rather than a median of rounds: the host's
		// speed drifts in phases longer than a round, and the pooled rate
		// blends them where a median picks whichever phase held most rounds.
		rec.Metrics["work_per_s"] = float64(r.units) / r.work.Seconds()
		rec.Metrics["peak_rss_mb"] = rss
		return rec, nil
	}
	n := float64(r.rounds)
	per := func(d time.Duration) float64 { return d.Seconds() / n }
	m := rec.Metrics
	layer := func(name string) *layerTotal { return r.layers[name] }
	m["vm.exec.calls"] = float64(layer("vm.exec").calls) / n
	m["vm.exec.s"] = per(layer("vm.exec").d)
	m["vm.exec.minstr_per_s"] = ratio(float64(r.execInstr)/1e6, layer("vm.exec").d.Seconds())
	m["vm.instructions"] = float64(r.execInstr+r.mveeInstr) / n
	m["rt.load.calls"] = float64(layer("rt.load").calls) / n
	m["rt.load.s"] = per(layer("rt.load").d)
	m["rt.load.us_per_call"] = ratio(layer("rt.load").d.Seconds()*1e6, float64(layer("rt.load").calls))
	m["mvee.run.calls"] = float64(layer("mvee.run").calls) / n
	m["mvee.run.s"] = per(layer("mvee.run").d)
	m["tir.build.s"] = per(layer("tir.build").d)
	m["tir.verify.calls"] = float64(layer("tir.verify").calls) / n
	m["tir.verify.s"] = per(layer("tir.verify").d)
	m["codegen.compile.calls"] = float64(layer("codegen.compile").calls) / n
	m["codegen.compile.s"] = per(layer("codegen.compile").d)
	m["image.link.calls"] = float64(layer("image.link").calls) / n
	m["image.link.self_s"] = per(layer("image.link").d - layer("pcode.build").d)
	m["pcode.build.s"] = per(layer("pcode.build").d)
	m["pcode.ops"] = float64(r.ops) / n
	m["exec.cache.hit_ratio"] = ratio(float64(r.hits), float64(r.hits+r.misses))
	m["exec.cache.images"] = float64(r.images) / n
	m["exec.pool.busy_frac"] = ratio(r.busy.Seconds(), float64(r.o.p.jobs)*r.batchWall.Seconds())
	m["fleet.serve.s"], m["fleet.loop.self_s"] = 0, 0
	if r.w.unit == "requests" {
		m["fleet.serve.s"] = per(r.untraced)
		m["fleet.loop.self_s"] = per(r.untraced - r.fleetWork())
	}
	m["fleet.replace.count"] = float64(len(r.replace)) / n
	m["fleet.replace.p50_s"], m["fleet.replace.p90_s"] = 0, 0
	if len(r.replace) > 0 {
		m["fleet.replace.p50_s"] = percentile(r.replace, 50)
		m["fleet.replace.p90_s"] = percentile(r.replace, 90)
	}
	var attributed time.Duration
	for _, t := range r.layers {
		attributed += t.d
	}
	m["replay.total_s"] = per(r.replayTotal)
	m["unattributed_s"] = per(r.replayTotal - attributed)
	m["trace_overhead_frac"] = ratio(r.observed.Seconds(), r.untraced.Seconds()) - 1
	return rec, nil
}

// fleetWork is the replayed share of the serve loop's own path: loads,
// executions and lockstep runs. The untraced Serve time minus it is the
// loop's self time. Heal builds are left out: the fleet runs them on their
// own goroutines beside the loop. The two terms come from legs timed
// seconds apart on a host whose speed drifts, so when the loop's share is
// small the difference can come out negative.
func (r *report) fleetWork() time.Duration {
	wl := r.workLayers
	return wl["rt.load"] + wl["vm.exec"] + wl["mvee.run"]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// print writes the run's table, then the one-line JSON result.
func (r *report) print(w io.Writer, rec runRecord) error {
	p := r.o.p
	fmt.Fprintf(w, "== %s: %d rounds in %.1fs (seed %d, jobs %d): %d attempted, %d failed\n",
		r.w.name, r.rounds, r.wall.Seconds(), p.seed, p.jobs, rec.Attempted, rec.Failed)
	defs := endToEnd
	if r.o.trace {
		defs = perLayer
		r.printLayers(w, rec)
	} else {
		fmt.Fprintf(w, "%-12s %-4s %12s %12s %12s %12s %4s\n", "metric", "unit", "value", "round q1", "round median", "round q3", "n")
		row := func(name, unit string, xs []float64) {
			q1, med, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-12s %-4s %12.6g %12.6g %12.6g %12.6g %4d\n", name, unit, rec.Metrics[name], q1, med, q3, len(xs))
		}
		row("setup_s", "s", r.setupS)
		row("work_per_s", "1/s", r.workPerS)
		row("peak_rss_mb", "MB", []float64{rec.Metrics["peak_rss_mb"]})
		fmt.Fprintf(w, "(work_per_s counts %s over all rounds' measured time; n is rounds)\n", r.w.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{rec.Metrics[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printLayers writes the traced layer table: each layer's calls and time
// per round, which sum with unattributed_s to the replay's total.
func (r *report) printLayers(w io.Writer, rec runRecord) {
	n := float64(r.rounds)
	m := rec.Metrics
	total := m["replay.total_s"]
	fmt.Fprintf(w, "%-16s %10s %10s %7s  %s\n", "layer", "calls", "s/round", "share", "should move")
	for _, l := range layers {
		t := r.layers[l]
		s := t.d.Seconds() / n
		fmt.Fprintf(w, "%-16s %10.0f %10.4f %6.1f%%  %s\n", l, float64(t.calls)/n, s, 100*ratio(s, total), movesOf(l))
	}
	fmt.Fprintf(w, "%-16s %10s %10.4f %6.1f%%  replay bookkeeping and output checks\n", "unattributed", "", m["unattributed_s"], 100*ratio(m["unattributed_s"], total))
	fmt.Fprintf(w, "%-16s %10s %10.4f %6.1f%%\n", "total", "", total, 100.0)
	fmt.Fprintf(w, "tir.verify and pcode.build are probes: codegen.compile verifies inside, image.link predecodes inside (image.link.self_s = image.link - pcode.build)\n")
	fmt.Fprintf(w, "trace overhead: observed leg %.3fs vs untraced %.3fs per round (%+.1f%%)\n",
		r.observed.Seconds()/n, r.untraced.Seconds()/n, 100*m["trace_overhead_frac"])
	if r.w.unit == "requests" {
		fmt.Fprintf(w, "fleet.Serve %.3fs per round = replayed loads and runs %.3fs + loop self %.3fs\n",
			m["fleet.serve.s"], m["fleet.serve.s"]-m["fleet.loop.self_s"], m["fleet.loop.self_s"])
	}
	if k := len(r.replace); k > 0 {
		fmt.Fprintf(w, "time-to-replace: p50 %.4fs", percentile(r.replace, 50))
		if tail := tailPercentile(k); tail > 50 {
			fmt.Fprintf(w, ", p%g %.4fs", tail, percentile(r.replace, tail))
		}
		fmt.Fprintf(w, " over %d heals\n", k)
	}
}

// movesOf describes what the layer's time should move, from moves.
func movesOf(l string) string {
	var parts []string
	for _, mv := range moves {
		if strings.HasPrefix(mv.layer, l+".") {
			s := mv.metric + " on " + strings.Join(mv.workloads, ", ")
			if mv.note != "" {
				s += " (" + mv.note + ")"
			}
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, "; ")
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// writeChrome writes spans as a Chrome trace_event document.
func writeChrome(path string, spans []telemetry.SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t := telemetry.NewChromeTracer(f)
	for _, s := range spans {
		t.RecordSpan(s)
	}
	err = t.Close()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
