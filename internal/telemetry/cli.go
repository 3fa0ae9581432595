package telemetry

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// This file turns the sink flag values (-metrics-out FILE, -trace FILE,
// -trace-format, -profile, -flight; registered by internal/harness) into an
// Observer plus the matching teardown (write the JSON snapshot, flush and
// close the trace file).

// Trace formats accepted by the -trace-format flag.
const (
	// TraceJSONL is the line-delimited event/span stream (the default).
	TraceJSONL = "jsonl"
	// TraceChrome is the Chrome trace_event JSON document, loadable in
	// chrome://tracing and Perfetto.
	TraceChrome = "chrome"
)

// SinkOptions are the resolved values of the standard telemetry flags.
type SinkOptions struct {
	// MetricsOut is the -metrics-out path ("" disables).
	MetricsOut string
	// TraceOut is the -trace path ("" disables).
	TraceOut string
	// TraceFormat selects the trace file format: TraceJSONL (default) or
	// TraceChrome.
	TraceFormat string
	// Profile enables the per-function cycle profiler.
	Profile bool
	// EnsureRegistry forces a live Observer (with a registry) even when no
	// file sink was requested — the ops endpoint needs one to serve
	// /metrics from.
	EnsureRegistry bool
	// Meta is the provenance header stamped into the -metrics-out snapshot
	// (go version, GOOS/GOARCH, CPU count, git describe); nil omits it.
	Meta map[string]string
	// FlightCap is the -flight value: per-process flight-recorder capacity
	// in events (0 disables). A nonzero cap forces a live Observer so every
	// process the run creates carries a recorder.
	FlightCap int
}

// Sinks owns the file sinks behind the standard telemetry flags. A Sinks
// whose flags were all disabled has a nil Obs, so the simulation runs on the
// uninstrumented path.
type Sinks struct {
	// Obs is the observer to hand to the experiment drivers. Nil when no
	// telemetry flag was given.
	Obs *Observer

	metrics *os.File
	meta    map[string]string
	trace   *os.File
	chrome  *ChromeTracer
}

// OpenSinksOpts assembles an Observer from the standard flag values. Files
// are opened eagerly, so a bad path fails before any experiment runs rather
// than after minutes of work. The caller must Close the result.
func OpenSinksOpts(o SinkOptions) (*Sinks, error) {
	s := &Sinks{}
	if o.MetricsOut == "" && o.TraceOut == "" && !o.Profile && !o.EnsureRegistry && o.FlightCap <= 0 {
		return s, nil
	}
	switch o.TraceFormat {
	case "", TraceJSONL, TraceChrome:
	default:
		return nil, fmt.Errorf("telemetry: unknown trace format %q (want %s or %s)", o.TraceFormat, TraceJSONL, TraceChrome)
	}
	obs := &Observer{Registry: NewRegistry(), ProfileFuncs: o.Profile, FlightCap: o.FlightCap}
	if o.MetricsOut != "" {
		f, err := os.Create(o.MetricsOut)
		if err != nil {
			return nil, fmt.Errorf("telemetry: open metrics sink: %w", err)
		}
		s.metrics = f
		s.meta = o.Meta
	}
	if o.TraceOut != "" {
		f, err := os.Create(o.TraceOut)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("telemetry: open trace sink: %w", err)
		}
		s.trace = f
		if o.TraceFormat == TraceChrome {
			s.chrome = NewChromeTracer(f)
			obs.Tracer = s.chrome
			obs.Spans = s.chrome
		} else {
			jl := NewJSONLTracer(f)
			obs.Tracer = jl
			obs.Spans = jl
		}
	}
	s.Obs = obs
	return s, nil
}

// Close flushes the metrics snapshot to -metrics-out (if set), flushes the
// Chrome trace document, and closes both files. Every failure is reported:
// the individual errors are combined with errors.Join, so a failed metrics
// write is never masked by a failed trace close (or vice versa).
func (s *Sinks) Close() error {
	var errs []error
	if s.metrics != nil {
		if s.Obs != nil {
			if err := s.Obs.Registry.WriteJSONMeta(s.metrics, s.meta); err != nil {
				errs = append(errs, fmt.Errorf("telemetry: write metrics snapshot: %w", err))
			}
		}
		if err := s.metrics.Close(); err != nil {
			errs = append(errs, err)
		}
		s.metrics = nil
	}
	if s.trace != nil {
		if s.chrome != nil {
			if err := s.chrome.Close(); err != nil {
				errs = append(errs, fmt.Errorf("telemetry: flush chrome trace: %w", err))
			}
			s.chrome = nil
		}
		if err := s.trace.Close(); err != nil {
			errs = append(errs, err)
		}
		s.trace = nil
	}
	return errors.Join(errs...)
}

// WriteHotFunctions renders the top-n hot-function table accumulated in the
// registry by the -profile runs: self cycles (with share of the total), the
// cumulative cycles of the function and its callees, and call counts,
// aggregated across every profiled run that published into the registry.
func (r *Registry) WriteHotFunctions(w io.Writer, n int) {
	snap := r.Snapshot()
	top := snap.TopCounters("vm.func.self_cycles", n)
	if len(top) == 0 {
		return
	}
	var total float64
	for _, kv := range snap.TopCounters("vm.func.self_cycles", 0) {
		total += kv.Value
	}
	fmt.Fprintf(w, "hot functions (aggregated over profiled runs):\n")
	fmt.Fprintf(w, "%4s %-24s %14s %7s %14s %10s\n", "#", "function", "self-cycles", "self%", "cum-cycles", "calls")
	for i, kv := range top {
		_, labels := ParseKey(kv.Key)
		fn := labels["fn"]
		cum := snap.Counters[Key("vm.func.cum_cycles", "fn", fn)]
		calls := snap.Counters[Key("vm.func.calls", "fn", fn)]
		pct := 0.0
		if total > 0 {
			pct = kv.Value / total * 100
		}
		fmt.Fprintf(w, "%4d %-24s %14.0f %6.1f%% %14d %10d\n", i+1, fn, kv.Value, pct, cum, calls)
	}
}

// WriteFolded renders the folded-stack cycle profile accumulated in the
// registry by the -profile runs: one "frame;frame;frame cycles" line per
// distinct call path, aggregated across every profiled run — the input
// flamegraph.pl and speedscope consume directly.
func (r *Registry) WriteFolded(w io.Writer) {
	snap := r.Snapshot()
	totals := map[string]uint64{}
	paths := make([]string, 0, len(snap.Counters))
	for k, v := range snap.Counters {
		base, labels := ParseKey(k)
		if base != "vm.stack.self_cycles" || labels["stack"] == "" {
			continue
		}
		if _, seen := totals[labels["stack"]]; !seen {
			paths = append(paths, labels["stack"])
		}
		totals[labels["stack"]] += v
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(w, "%s %d\n", p, totals[p])
	}
}
