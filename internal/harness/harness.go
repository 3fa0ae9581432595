// Package harness is the plumbing under the cmd/ binaries: the flag groups
// each CLI opts into and one run lifecycle.
//
// Every CLI carries the sink flags -metrics-out, -trace and -trace-format;
// the Group constants add the rest. A CLI builds a Harness with New,
// registers its own flags on Flags, and hands its work to Main, which owns
// the exit code:
//
//	0  clean run
//	1  failed run: hard error, partial batch, firing alert rule, drift from
//	   the -compare baseline, or an artifact that could not be written
//	2  usage error: bad flags or arguments, unknown experiment, malformed
//	   -trace-format, -faults plan or -alert-rules file
//
// Inside Main the CLI calls Open (telemetry sinks and observer, exec
// engine, incident log, journal, SIGINT/SIGTERM context), Serve (the
// -listen ops endpoint) and, for CLIs with an experiment table,
// RunExperiments. After a successful body Main writes the run artifacts,
// judges -baseline/-compare and evaluates the alert rules; on every path it
// then closes the ops server, the journal and the sinks, in that order.
// Status lines ("[… written to …]", "[resuming: …]", "[ops endpoint
// listening on …]") go to Stderr, so a CLI's stdout can carry exactly one
// machine-readable document.
package harness

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"r2c/internal/attack"
	"r2c/internal/exec"
	"r2c/internal/incident"
	"r2c/internal/perf"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/workload"
)

// Group selects a set of shared flags a CLI carries.
type Group uint

const (
	// Ops adds -listen, the live ops endpoint.
	Ops Group = 1 << iota
	// Artifacts adds -flight, -alert-rules, -incidents-out and
	// -timeseries-out.
	Artifacts
	// Engine adds the exec engine's robustness knobs: -cell-fuel,
	// -retries, -journal and -faults.
	Engine
	// PerfGate adds -baseline and -compare.
	PerfGate
)

// The -trace-format values: the line-delimited event/span stream (the
// default) and the Chrome trace_event document (chrome://tracing, Perfetto).
const (
	traceJSONL  = "jsonl"
	traceChrome = "chrome"
)

// Experiment is one entry of a CLI's experiment table.
type Experiment struct {
	Name string
	Run  func() error
}

// Harness is one CLI invocation: its flags, the telemetry and execution
// state Open wires up, and the exit status Main returns.
type Harness struct {
	Name  string
	Flags *flag.FlagSet
	// Stdout receives the run's human-readable output, including the
	// judge and alert tables; Stderr receives diagnostics and status lines.
	Stdout, Stderr io.Writer
	// Experiments is the table the positional argument selects from; "all"
	// runs every entry in order. Nil for CLIs whose argument is a workload.
	Experiments []Experiment
	// Params names the int flags a -baseline records and -compare adopts
	// from the baseline unless they are given explicitly.
	Params []string

	// Obs, Eng, Ctx and (when something reads it) Incidents are set by
	// Open. A CLI may set Incidents before Open to force a log, and Series
	// before Serve to hand in rings it owns.
	Obs       *telemetry.Observer
	Eng       *exec.Engine
	Incidents *incident.Log
	Series    *telemetry.SeriesSet
	Ctx       context.Context

	args     string
	f        flagValues
	set      map[string]bool
	label    string
	selected []Experiment
	old      *perf.Baseline
	rules    []telemetry.AlertRule
	prov     perf.Provenance
	start    time.Time
	metrics  *os.File
	trace    *os.File
	chrome   *telemetry.ChromeTracer
	ops      *telemetry.OpsServer
	cancel   context.CancelFunc
	failed   bool
}

type flagValues struct {
	metricsOut, trace, traceFormat          string
	listen                                  string
	flight                                  int
	alertRules, incidentsOut, timeseriesOut string
	cellFuel                                uint64
	retries                                 int
	journal, faults                         string
	baseline, compare                       string
}

// New returns a harness for the CLI name whose positional argument is
// described by args (e.g. "<experiment>"), with the sink flags and groups
// registered on a fresh FlagSet.
func New(name, args string, stdout, stderr io.Writer, groups Group) *Harness {
	h := &Harness{Name: name, args: args, Stdout: stdout, Stderr: stderr,
		Flags: flag.NewFlagSet(name, flag.ContinueOnError)}
	fs, f := h.Flags, &h.f
	fs.SetOutput(stderr)
	fs.Usage = h.usage
	fs.StringVar(&f.metricsOut, "metrics-out", "", "write a JSON metrics snapshot to FILE on exit")
	fs.StringVar(&f.trace, "trace", "", "write structured events and pipeline spans to FILE")
	fs.StringVar(&f.traceFormat, "trace-format", traceJSONL, "trace file format: jsonl or chrome (chrome://tracing / Perfetto)")
	if groups&Ops != 0 {
		fs.StringVar(&f.listen, "listen", "", "serve the live ops endpoint (/metrics, /healthz, /progress, /incidents, /alerts, /timeseries, /dashboard, /debug/pprof) on ADDR, e.g. :8642")
	}
	if groups&Artifacts != 0 {
		fs.IntVar(&f.flight, "flight", 0, "per-process flight-recorder depth in events (0 = off); recent control flow is attached to every incident record")
		fs.StringVar(&f.alertRules, "alert-rules", "", "evaluate the declarative alert rules in FILE at exit (and live on /alerts); windowed functions read the sampled time series; any firing rule fails the run")
		fs.StringVar(&f.incidentsOut, "incidents-out", "", "write the incident timeline (trap/fault/hang/divergence records with flight snapshots) as JSON to FILE on exit")
		fs.StringVar(&f.timeseriesOut, "timeseries-out", "", "write the sampled time-series rings as JSON to FILE on exit (byte-identical at any -jobs width)")
	}
	if groups&Engine != 0 {
		fs.Uint64Var(&f.cellFuel, "cell-fuel", 0, "per-cell VM instruction allowance (0 = the default budget); runaway cells fail instead of hanging")
		fs.IntVar(&f.retries, "retries", 0, "re-attempts per failed cell, each with a seed derived from the cell's content key")
		fs.StringVar(&f.journal, "journal", "", "persist completed cell results to FILE (JSONL, keyed by build key + machine); cells FILE already holds replay instead of re-executing")
		fs.StringVar(&f.faults, "faults", "", "fault-injection plan CELL[@ATTEMPT]:KIND,... with KIND one of build-fail, exec-fail, panic; CELL may be * (testing aid)")
	}
	if groups&PerfGate != 0 {
		fs.StringVar(&f.baseline, "baseline", "", "write the run's performance numbers as a baseline to FILE (BENCH_<experiment>.json)")
		fs.StringVar(&f.compare, "compare", "", "re-run the baseline in FILE (adopting its experiment and parameters unless given) and exit nonzero if any modeled metric drifts")
	}
	return h
}

func (h *Harness) usage() {
	fmt.Fprintf(h.Stderr, "usage: %s [flags] %s\n", h.Name, h.args)
	if h.Experiments != nil {
		fmt.Fprintf(h.Stderr, "experiments: %s\n", h.known())
	}
	h.Flags.PrintDefaults()
}

func (h *Harness) known() string {
	names := make([]string, 0, len(h.Experiments)+1)
	for _, e := range h.Experiments {
		names = append(names, e.Name)
	}
	return strings.Join(append(names, "all"), " ")
}

// usageError makes Main exit 2; a nil error means the usage text was
// already printed.
type usageError struct{ err error }

func (u usageError) Error() string { return fmt.Sprint(u.err) }

// Usage marks err as a usage error: Main prints it and exits 2.
func Usage(err error) error { return usageError{err} }

// Explicit reports whether the named flag was given on the command line.
func (h *Harness) Explicit(name string) bool { return h.set[name] }

// Fail reports err and makes the run exit 1 without aborting it: later
// experiments, artifacts and alert evaluation still run.
func (h *Harness) Fail(err error) {
	fmt.Fprintf(h.Stderr, "%s: %v\n", h.Name, err)
	h.failed = true
}

// Main parses args, runs body and returns the process exit code (see the
// package comment). body does the CLI's work; it calls Open itself, so
// CLI-specific validation can fail before any file is created.
func (h *Harness) Main(args []string, body func() error) int {
	if err := h.Flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := h.prepare()
	if err == nil {
		err = body()
	}
	if err == nil && h.Eng != nil {
		h.report()
	}
	return h.close(err)
}

// prepare checks -trace-format, adopts the -compare baseline's parameters
// and selects the experiments before any work runs, so a typo fails fast.
func (h *Harness) prepare() error {
	h.set = map[string]bool{}
	h.Flags.Visit(func(f *flag.Flag) { h.set[f.Name] = true })
	switch h.f.traceFormat {
	case "", traceJSONL, traceChrome:
	default:
		return Usage(fmt.Errorf("unknown -trace-format %q (want %s or %s)", h.f.traceFormat, traceJSONL, traceChrome))
	}
	if h.f.compare != "" {
		old, err := perf.Load(h.f.compare)
		if err != nil {
			return err
		}
		h.old = old
		for _, p := range h.Params {
			if v, ok := old.Params[p]; ok && !h.set[p] {
				if _, err := strconv.Atoi(v); err == nil {
					h.Flags.Set(p, v)
				}
			}
		}
	}
	h.label = h.Flags.Arg(0)
	switch n := h.Flags.NArg(); {
	case n == 0 && h.old != nil:
		h.label = h.old.Label
	case n != 1:
		h.Flags.Usage()
		return Usage(nil)
	}
	if h.Experiments == nil {
		return nil
	}
	for _, e := range h.Experiments {
		if e.Name == h.label || h.label == "all" {
			h.selected = append(h.selected, e)
		}
	}
	if len(h.selected) == 0 {
		return Usage(fmt.Errorf("unknown experiment %q\nknown experiments: %s", h.label, h.known()))
	}
	return nil
}

// Open validates the -faults plan and -alert-rules file, then opens what
// the run writes to: the telemetry sinks, a jobs-wide exec engine under the
// robustness flags, the incident log when something reads it, the journal,
// and the SIGINT/SIGTERM context. profile is the CLI's -profile value: it
// turns on the per-function cycle profiler.
func (h *Harness) Open(jobs int, profile bool) error {
	f := &h.f
	plan, err := exec.ParseFaultPlan(f.faults)
	if err != nil {
		return Usage(err)
	}
	if f.alertRules != "" {
		if h.rules, err = telemetry.LoadAlertRules(f.alertRules); err != nil {
			return Usage(err)
		}
	}
	h.start, h.prov = time.Now(), perf.Collect()
	if err := h.openSinks(profile); err != nil {
		return err
	}
	h.Eng = exec.New(jobs, h.Obs)
	if h.Incidents == nil && (f.incidentsOut != "" || f.listen != "" || f.alertRules != "" || f.flight > 0) {
		h.Incidents = incident.NewLog()
	}
	h.Eng.Incidents = h.Incidents
	h.Eng.CellFuel, h.Eng.Retries, h.Eng.Faults = f.cellFuel, f.retries, plan
	if f.journal != "" {
		j, err := exec.OpenJournal(f.journal)
		if err != nil {
			return err
		}
		h.Eng.Journal = j
		if j.Len() > 0 {
			fmt.Fprintf(h.Stderr, "[resuming: %d journaled cells in %s]\n", j.Len(), f.journal)
		}
	}
	// Ctrl-C/SIGTERM cancels the run context: queued cells never start,
	// in-flight ones stop at their next fuel-chunk poll, the journal keeps
	// what finished (what a re-run with the same -journal replays), and
	// Main still flushes the sinks.
	h.Ctx, h.cancel = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return nil
}

// openSinks builds the observer when anything reads it, and opens the
// -metrics-out and -trace files eagerly, so a bad path fails before any work
// runs. Without an observer the run takes the uninstrumented path.
func (h *Harness) openSinks(profile bool) error {
	f := &h.f
	// Besides the two sink files and the profiler: the ops endpoint serves
	// /metrics from the registry, the perf gate and the alert rules read
	// one, and a nonzero -flight gives every process a recorder.
	if f.metricsOut == "" && f.trace == "" && f.listen == "" && f.baseline == "" && f.compare == "" &&
		f.alertRules == "" && f.flight <= 0 && !profile {
		return nil
	}
	// The observer is set before either file opens, so a failed trace open
	// still leaves closeSinks a registry to snapshot into -metrics-out.
	obs := &telemetry.Observer{Registry: telemetry.NewRegistry(), ProfileFuncs: profile, FlightCap: f.flight}
	h.Obs = obs
	var err error
	if f.metricsOut != "" {
		if h.metrics, err = os.Create(f.metricsOut); err != nil {
			return fmt.Errorf("telemetry: open metrics sink: %w", err)
		}
	}
	if f.trace != "" {
		if h.trace, err = os.Create(f.trace); err != nil {
			return fmt.Errorf("telemetry: open trace sink: %w", err)
		}
		if f.traceFormat == traceChrome {
			h.chrome = telemetry.NewChromeTracer(h.trace)
			obs.Tracer, obs.Spans = h.chrome, h.chrome
		} else {
			jl := telemetry.NewJSONLTracer(h.trace)
			obs.Tracer, obs.Spans = jl, jl
		}
	}
	return nil
}

// SampleCells wires time-series rings into the engine when something will
// read them.
func (h *Harness) SampleCells() {
	if h.f.timeseriesOut != "" || h.f.listen != "" || h.f.alertRules != "" {
		h.Series = telemetry.NewSeriesSet(0, h.Obs)
		h.Eng.Series = h.Series
	}
}

// Serve starts the -listen ops endpoint, if requested. The registry,
// alerts and series sources are the harness's own; Progress and Incidents
// default to the engine's progress and the incident timeline.
func (h *Harness) Serve(src telemetry.OpsSources) error {
	if h.f.listen == "" {
		return nil
	}
	src.Registry, src.Series = h.Obs.Reg(), h.Series
	src.Alerts = func() any { return h.alerts() }
	if src.Progress == nil {
		src.Progress = func() any { return h.Eng.Progress() }
	}
	if src.Incidents == nil {
		src.Incidents = func() any { return h.Incidents.Timeline() }
	}
	ops, err := telemetry.ServeOpsSources(h.f.listen, src)
	if err != nil {
		return err
	}
	h.ops = ops
	fmt.Fprintf(h.Stderr, "[ops endpoint listening on %s]\n", ops.URL())
	return nil
}

// RunExperiments runs the selected experiments in table order and records
// each one's wall time in harness.experiment.seconds{name=…}. A partial
// batch failure prints its summary and fails the run without aborting it;
// a hard error or cancellation aborts.
func (h *Harness) RunExperiments() error {
	for _, e := range h.selected {
		start := time.Now()
		err := e.Run()
		h.Obs.Histogram("harness.experiment.seconds", telemetry.LatencyBounds, "name", e.Name).Observe(time.Since(start).Seconds())
		if err == nil {
			continue
		}
		be, ok := exec.AsBatchError(err)
		if !ok || h.Ctx.Err() != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		h.Fail(fmt.Errorf("%s: partial results: %s", e.Name, be.Summary()))
	}
	return nil
}

func (h *Harness) alerts() []telemetry.AlertState {
	return telemetry.EvalAlertsSeries(h.rules, h.Obs.Reg().Snapshot(), h.Series.Snapshot(nil, 0), time.Since(h.start))
}

// report writes the end-of-run artifacts of a run that was not aborted.
func (h *Harness) report() {
	f := &h.f
	if f.baseline != "" || h.old != nil {
		params := map[string]string{}
		for _, p := range h.Params {
			params[p] = h.Flags.Lookup(p).Value.String()
		}
		fresh := perf.FromSnapshot(h.label, h.Obs.Reg().Snapshot(), h.prov, params)
		if f.baseline != "" {
			h.artifact(fmt.Sprintf("baseline %q", h.label), f.baseline, fresh.Save)
		}
		if h.old != nil {
			rep := perf.Judge(h.old, fresh)
			rep.WriteTable(h.Stdout)
			if rep.Failed() {
				h.Fail(fmt.Errorf("modeled metrics drifted from %s (refresh it with make bench if the change is intended)", f.compare))
			}
		}
	}
	if f.incidentsOut != "" {
		h.artifact(fmt.Sprintf("%d incident records", h.Incidents.Len()), f.incidentsOut, writeFile(h.Incidents.WriteJSON))
	}
	if f.timeseriesOut != "" {
		h.artifact("time-series rings", f.timeseriesOut, writeFile(h.Series.WriteJSON))
	}
	if len(h.rules) > 0 {
		states := h.alerts()
		telemetry.WriteAlertTable(h.Stdout, states)
		if n := telemetry.FiringCount(states); n > 0 {
			h.Fail(fmt.Errorf("%d alert rule(s) firing", n))
		}
	}
	if h.Experiments != nil {
		fmt.Fprintln(h.Stdout, h.Eng.Footer(h.Name))
	}
}

func (h *Harness) artifact(what, path string, save func(string) error) {
	if err := save(path); err != nil {
		h.Fail(err)
		return
	}
	fmt.Fprintf(h.Stderr, "[%s written to %s]\n", what, path)
}

func writeFile(write func(io.Writer) error) func(string) error {
	return func(path string) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// close reports err, shuts down everything Open and Serve started — the
// ops server first, so no scrape races the final metrics snapshot — and
// returns the exit code.
func (h *Harness) close(err error) int {
	code := 0
	if h.failed {
		code = 1
	}
	var ue usageError
	if errors.As(err, &ue) {
		code, err = 2, ue.err
	} else if err != nil {
		code = 1
	}
	if err != nil {
		fmt.Fprintf(h.Stderr, "%s: %v\n", h.Name, err)
	}
	if err := h.ops.Close(); err != nil {
		fmt.Fprintf(h.Stderr, "%s: ops shutdown: %v\n", h.Name, err)
	}
	if h.Eng != nil {
		if err := h.Eng.Journal.Close(); err != nil {
			fmt.Fprintf(h.Stderr, "%s: %v\n", h.Name, err)
			code = max(code, 1)
		}
	}
	if err := h.closeSinks(); err != nil {
		fmt.Fprintf(h.Stderr, "%s: %v\n", h.Name, err)
		code = max(code, 1)
	}
	if h.cancel != nil {
		h.cancel()
	}
	return code
}

// closeSinks writes the metrics snapshot with the run's provenance, flushes
// the Chrome document and closes both files. It reports every failure, so a
// failed snapshot write never masks a failed trace flush or the reverse.
func (h *Harness) closeSinks() error {
	var errs []error
	if h.metrics != nil {
		if err := h.Obs.Registry.WriteJSONMeta(h.metrics, h.prov.Meta()); err != nil {
			errs = append(errs, fmt.Errorf("telemetry: write metrics snapshot: %w", err))
		}
		errs = append(errs, h.metrics.Close())
	}
	if h.chrome != nil {
		if err := h.chrome.Close(); err != nil {
			errs = append(errs, fmt.Errorf("telemetry: flush chrome trace: %w", err))
		}
	}
	if h.trace != nil {
		errs = append(errs, h.trace.Close())
	}
	return errors.Join(errs...)
}

// Module resolves a workload argument: a built-in workload name at the given
// scale divisor, the attack victim, or a .tir source file.
func Module(name string, scale int) (*tir.Module, error) {
	if name == "victim" {
		return attack.Victim(), nil
	}
	if b, ok := workload.ByName(name); ok {
		return b.Build(scale), nil
	}
	if strings.HasSuffix(name, ".tir") {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		return tir.Parse(string(src))
	}
	return nil, fmt.Errorf("unknown workload %q (SPEC name, nginx, apache, victim, or a .tir file)", name)
}
