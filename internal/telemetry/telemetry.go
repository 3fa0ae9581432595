// Package telemetry is the observability substrate for the simulator: a
// zero-dependency metrics registry (atomic counters, gauges and fixed-bound
// histograms — wall-clock durations are "*.seconds" histograms over the
// log-spaced LatencyBounds) plus a pluggable event tracer. Every hook in
// the stack is nil-safe — a nil *Registry, nil metric handle, nil Tracer or
// nil *Observer turns the corresponding instrumentation into a no-op — so
// instrumented code never has to branch on "is telemetry on".
//
// Telemetry is strictly write-beside: nothing in this package feeds back
// into the simulation. The determinism test in internal/sim asserts that a
// fully-instrumented run produces bit-identical results (cycles, output,
// RNG-derived load-time state) to an uninstrumented one, so instrumentation
// can never perturb a paper number.
package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Key builds the canonical metric key "name{k=v,...}" from a name and
// alternating label key/value pairs. With no labels the key is just the
// name. Label pairs are sorted by key so the same label set always yields
// the same metric, regardless of argument order.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	n := len(labels) / 2 * 2 // ignore a trailing odd label
	type kv struct{ k, v string }
	pairs := make([]kv, 0, n/2)
	for i := 0; i < n; i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// ParseKey splits a metric key produced by Key back into its name and label
// map. Keys without labels return a nil map.
func ParseKey(key string) (name string, labels map[string]string) {
	i := strings.IndexByte(key, '{')
	if i < 0 || !strings.HasSuffix(key, "}") {
		return key, nil
	}
	name = key[:i]
	body := key[i+1 : len(key)-1]
	if body == "" {
		return name, nil
	}
	labels = make(map[string]string)
	for _, part := range strings.Split(body, ",") {
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			labels[part[:eq]] = part[eq+1:]
		}
	}
	return name, labels
}

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-op / zero).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 value that can be set, added to, or raised to
// a maximum. All methods are safe on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// SetMax raises the gauge to v if v is larger (peak tracking, e.g. max RSS).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics. Lookup is lock-protected; updates on the
// returned handles are lock-free. A nil *Registry hands out nil handles,
// whose methods are no-ops, so callers never branch on enablement.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// getOrCreate returns m[key], creating it with mk on first use. Lookups
// of an existing metric take only the read lock.
func getOrCreate[T any](r *Registry, m map[string]*T, key string, mk func() *T) *T {
	r.mu.RLock()
	v := m[key]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[key]; v == nil {
		v = mk()
		m[key] = v
	}
	return v
}

// Counter returns (creating if needed) the counter for name+labels.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.counters, Key(name, labels...), func() *Counter { return &Counter{} })
}

// Gauge returns (creating if needed) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.gauges, Key(name, labels...), func() *Gauge { return &Gauge{} })
}

// Histogram returns (creating if needed) the histogram for name+labels.
// bounds are the inclusive upper bounds (sorted on creation; see
// LatencyBounds and CycleBounds for the defaults); they are fixed at first
// creation and later calls with different bounds return the existing
// histogram unchanged.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.histograms, Key(name, labels...), func() *Histogram { return NewHistogram(bounds) })
}

// HistogramSnapshot is the serialized form of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"` // ascending inclusive upper bounds
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last is overflow
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry, serializable to JSON.
// Map keys are the canonical metric keys from Key.
type Snapshot struct {
	// Meta is the optional provenance header (-metrics-out stamps go
	// version, GOOS/GOARCH, CPU count, git describe here) so snapshots
	// from different machines stay interpretable side by side. It is not a
	// metric and nothing in the registry populates it.
	Meta       map[string]string            `json:"meta,omitempty"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values. Safe to call while other
// goroutines keep updating metrics. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.histograms {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// WriteJSONMeta writes the registry snapshot as indented JSON (the
// -metrics-out format) with a provenance header attached (nil for none), so
// a -metrics-out file records the environment that produced it.
// encoding/json sorts map keys, so the output is deterministic for a given
// set of values.
func (r *Registry) WriteJSONMeta(w io.Writer, meta map[string]string) error {
	s := r.Snapshot()
	s.Meta = meta
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// KV is one metric key with its numeric value, for sorted reports.
type KV struct {
	Key   string
	Value float64
}

// TopCounters returns the counters whose name (the part before any label
// block) equals name, sorted descending by value, at most n entries. It is
// the query behind the hot-function table.
func (s *Snapshot) TopCounters(name string, n int) []KV {
	var out []KV
	for k, v := range s.Counters {
		if base, _ := ParseKey(k); base == name {
			out = append(out, KV{k, float64(v)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
