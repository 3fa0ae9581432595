package telemetry

import (
	"sort"
	"sync"
	"time"
)

// This file is the hierarchical span tracer: wall-clock timed regions with
// parent links, deterministic IDs and free-form attributes, designed for the
// pipeline's build/execute phases (cell → cache-lookup/build → compile/link →
// execute). Like every other hook in the package, a nil *Span or a missing
// sink turns the instrumentation into a no-op, and spans are strictly
// write-beside: they read the clock but never feed anything back into the
// simulation, so the determinism gate keeps holding with spans enabled.
//
// Span IDs are content-derived, not allocated from a shared counter: an ID is
// a hash of (parent ID, name, caller-chosen key). Two runs of the same
// pipeline therefore assign the same IDs to the same logical spans no matter
// how many workers interleave — the property the -jobs 1 vs -jobs 8 trace
// comparison tests pin down. Wall-clock fields still differ between runs;
// only identity and structure are deterministic.

// SpanData is the serialized form of one finished span.
type SpanData struct {
	// ID and Parent identify the span and its enclosing span (Parent is 0
	// for root spans). IDs are deterministic hashes of the span's position
	// in the tree, not allocation order.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNs is the wall-clock start in Unix nanoseconds; DurNs the
	// duration.
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
	// TID is the lane the span ran on (worker index in the exec pool);
	// exporters with a thread axis (Chrome trace_event) group by it.
	TID int `json:"tid,omitempty"`
	// Attrs is the structured payload (cache hit/miss, worker id, seeds).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// SpanSink receives finished spans. Implementations must be safe for
// concurrent use; recording must never influence the simulation.
type SpanSink interface {
	RecordSpan(SpanData)
}

// SpanID derives the deterministic ID for a span from its parent's ID, its
// name and a caller-chosen key (FNV-1a over the three). Use the key to
// distinguish same-named siblings — e.g. the cell index under one batch; 0
// is fine when the name is unique within the parent.
func SpanID(parent uint64, name string, key uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(parent)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	mix(key)
	if h == 0 {
		h = 1 // 0 is the "no parent" sentinel
	}
	return h
}

// Span is one in-flight timed region. A span is owned by the goroutine that
// started it: SetAttr/SetTID/End are not safe to call concurrently on the
// same span, but distinct spans (including siblings under one parent) are
// independent. All methods are safe on a nil receiver.
type Span struct {
	sink  SpanSink
	id    uint64
	paren uint64
	name  string
	start time.Time
	tid   int
	attrs map[string]any
	ended bool
}

// StartSpan begins a root span recording into sink. A nil sink returns a nil
// span, whose whole subtree collapses into no-ops.
func StartSpan(sink SpanSink, name string, key uint64) *Span {
	if sink == nil {
		return nil
	}
	return &Span{
		sink:  sink,
		id:    SpanID(0, name, key),
		name:  name,
		start: time.Now(),
	}
}

// Child begins a sub-span. key distinguishes same-named siblings (use the
// item index); pass 0 when the name is unique within this parent.
func (sp *Span) Child(name string, key uint64) *Span {
	if sp == nil {
		return nil
	}
	return &Span{
		sink:  sp.sink,
		id:    SpanID(sp.id, name, key),
		paren: sp.id,
		name:  name,
		start: time.Now(),
		tid:   sp.tid,
	}
}

// SetAttr attaches one attribute. Values should be JSON-friendly scalars.
func (sp *Span) SetAttr(k string, v any) {
	if sp == nil {
		return
	}
	if sp.attrs == nil {
		sp.attrs = make(map[string]any)
	}
	sp.attrs[k] = v
}

// SetTID assigns the span's lane (worker index). Children started afterwards
// inherit it.
func (sp *Span) SetTID(tid int) {
	if sp == nil {
		return
	}
	sp.tid = tid
}

// End finishes the span and delivers it to the sink. End is idempotent; a
// second call is ignored, so `defer sp.End()` composes with early explicit
// ends.
func (sp *Span) End() {
	if sp == nil || sp.ended {
		return
	}
	sp.ended = true
	sp.sink.RecordSpan(SpanData{
		ID:      sp.id,
		Parent:  sp.paren,
		Name:    sp.name,
		StartNs: sp.start.UnixNano(),
		DurNs:   int64(time.Since(sp.start)),
		TID:     sp.tid,
		Attrs:   sp.attrs,
	})
}

// SpanCollector buffers finished spans in memory, for tests and programmatic
// readers.
type SpanCollector struct {
	mu    sync.Mutex
	spans []SpanData
}

// RecordSpan appends the span.
func (c *SpanCollector) RecordSpan(d SpanData) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, d)
}

// Spans returns a copy of everything collected so far, sorted by ID (the
// deterministic order, independent of which worker finished first).
func (c *SpanCollector) Spans() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]SpanData(nil), c.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
