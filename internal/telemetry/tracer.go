package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// Event is one structured occurrence on the event stream: a booby-trap
// detonation, a memory fault, a BTDP-constructor completion, an attacker
// probe, an experiment milestone. Attrs hold the event's payload; values
// should be JSON-friendly scalars (strings, integers rendered as uint64,
// booleans) so the JSONL form stays machine-readable.
type Event struct {
	// Seq is a per-tracer sequence number assigned at emission time.
	Seq uint64 `json:"seq"`
	// Kind names the event class, e.g. "trap", "fault", "btdp-init",
	// "attack.probe", "attack.outcome".
	Kind string `json:"kind"`
	// Attrs is the structured payload.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Tracer receives structured events. Implementations must be safe for
// concurrent use; emission must never influence the simulation.
type Tracer interface {
	Emit(kind string, attrs map[string]any)
}

// JSONLTracer writes one JSON object per event to an io.Writer — the
// -trace FILE format. Events carry a monotonically increasing sequence
// number so interleavings are reconstructible.
type JSONLTracer struct {
	mu  sync.Mutex
	w   io.Writer
	seq uint64
}

// NewJSONLTracer wraps w.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return &JSONLTracer{w: w} }

// Emit writes the event as one JSON line. Write errors are swallowed: a
// broken trace sink must not abort a simulation mid-experiment.
func (t *JSONLTracer) Emit(kind string, attrs map[string]any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	b, err := json.Marshal(Event{Seq: t.seq, Kind: kind, Attrs: attrs})
	if err != nil {
		return
	}
	b = append(b, '\n')
	t.w.Write(b)
}

// RecordSpan writes a finished span as one {"kind":"span",...} JSON line on
// the same stream, so the JSONL trace interleaves spans with events and a
// single file reconstructs the whole run.
func (t *JSONLTracer) RecordSpan(d SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	b, err := json.Marshal(struct {
		Seq  uint64   `json:"seq"`
		Kind string   `json:"kind"`
		Span SpanData `json:"span"`
	}{t.seq, "span", d})
	if err != nil {
		return
	}
	b = append(b, '\n')
	t.w.Write(b)
}

// Observer bundles the two sinks a component may report into — a metrics
// registry and an event tracer — plus the knobs that enable optional,
// costlier collection. A nil *Observer (or nil fields) disables everything;
// every method is nil-safe, so instrumented code calls straight through.
type Observer struct {
	Registry *Registry
	Tracer   Tracer
	// Spans receives finished pipeline spans (cell lifecycle, compile/link,
	// execute). Nil disables span tracing.
	Spans SpanSink
	// ProfileFuncs enables the per-function simulated-cycle profiler in
	// runs driven through sim.ExecMachine.
	ProfileFuncs bool
	// FlightCap sizes the per-process control-flow flight recorder (rounded
	// up to a power of two). Zero disables recording — the default, so
	// unobserved and metrics-only runs pay nothing in the dispatch loops.
	FlightCap int
}

// FlightRecorderCap returns the configured flight-recorder capacity; zero
// (including on a nil observer) means recording is disabled.
func (o *Observer) FlightRecorderCap() int {
	if o == nil {
		return 0
	}
	return o.FlightCap
}

// Enabled reports whether the observer has any live sink.
func (o *Observer) Enabled() bool {
	return o != nil && (o.Registry != nil || o.Tracer != nil || o.Spans != nil)
}

// Reg returns the registry (nil when absent).
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Registry
}

// Counter is a nil-safe shortcut for Reg().Counter.
func (o *Observer) Counter(name string, labels ...string) *Counter {
	return o.Reg().Counter(name, labels...)
}

// Gauge is a nil-safe shortcut for Reg().Gauge.
func (o *Observer) Gauge(name string, labels ...string) *Gauge {
	return o.Reg().Gauge(name, labels...)
}

// Histogram is a nil-safe shortcut for Reg().Histogram.
func (o *Observer) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	return o.Reg().Histogram(name, bounds, labels...)
}

// Emit sends an event to the tracer, if any.
func (o *Observer) Emit(kind string, attrs map[string]any) {
	if o == nil || o.Tracer == nil {
		return
	}
	o.Tracer.Emit(kind, attrs)
}

// StartSpan begins a root span against the observer's span sink. With no
// sink (or a nil observer) it returns a nil span, whose whole subtree is a
// no-op.
func (o *Observer) StartSpan(name string, key uint64) *Span {
	if o == nil {
		return nil
	}
	return StartSpan(o.Spans, name, key)
}

// Profiling reports whether per-function profiling was requested.
func (o *Observer) Profiling() bool { return o != nil && o.ProfileFuncs }
