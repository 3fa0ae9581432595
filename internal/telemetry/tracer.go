package telemetry

// Tracer receives structured events: a booby-trap detonation, a memory
// fault, a BTDP-constructor completion, an attacker probe, an experiment
// milestone. kind names the event class ("trap", "fault", "btdp-init",
// "attack.outcome"); attrs should hold JSON-friendly scalars.
// Implementations must be safe for concurrent use; emission must never
// influence the simulation.
type Tracer interface {
	Emit(kind string, attrs map[string]any)
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
