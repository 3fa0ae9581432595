package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestKeyRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		labels []string
		want   string
	}{
		{"plain", nil, "plain"},
		{"vm.instr", []string{"kind", "call"}, "vm.instr{kind=call}"},
		{"m", []string{"b", "2", "a", "1"}, "m{a=1,b=2}"}, // sorted by label key
		{"odd", []string{"k", "v", "dangling"}, "odd{k=v}"},
	}
	for _, c := range cases {
		got := Key(c.name, c.labels...)
		if got != c.want {
			t.Errorf("Key(%q, %v) = %q, want %q", c.name, c.labels, got, c.want)
		}
		name, labels := ParseKey(got)
		if name != c.name {
			t.Errorf("ParseKey(%q) name = %q, want %q", got, name, c.name)
		}
		n := len(c.labels) / 2
		if len(labels) != n {
			t.Errorf("ParseKey(%q) labels = %v, want %d entries", got, labels, n)
		}
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines; run
// under -race this is the data-race gate for the whole package.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Counter("labeled", "worker", string(rune('a'+w))).Inc()
				r.Gauge("g").Add(1)
				r.Gauge("peak").SetMax(float64(i))
				r.Histogram("h", []float64{10, 100, 1000}).Observe(float64(i % 2000))
				r.Histogram("t.seconds", LatencyBounds).Observe(1e-6)
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent snapshots must be safe too
				}
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != workers*perWorker {
		t.Errorf("gauge sum = %v, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("peak").Value(); got != perWorker-1 {
		t.Errorf("gauge max = %v, want %d", got, perWorker-1)
	}
	if got := r.Histogram("h", nil).Snapshot().Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("t.seconds", LatencyBounds).Snapshot().Count; got != workers*perWorker {
		t.Errorf("latency histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	// Bounds are inclusive upper bounds: x <= bound lands in the bucket.
	for _, x := range []float64{0, 0.5, 1} { // bucket 0: x <= 1
		h.Observe(x)
	}
	for _, x := range []float64{1.0001, 5, 10} { // bucket 1: 1 < x <= 10
		h.Observe(x)
	}
	for _, x := range []float64{11, 100} { // bucket 2: 10 < x <= 100
		h.Observe(x)
	}
	for _, x := range []float64{100.5, 1e9} { // overflow: x > 100
		h.Observe(x)
	}
	s := r.Snapshot().Histograms["h"]
	want := []uint64{3, 3, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 10 {
		t.Errorf("count = %d, want 10", s.Count)
	}
	if s.Sum == 0 {
		t.Errorf("sum = 0, want > 0")
	}
	// Unsorted bounds are sorted at creation.
	h2 := r.Histogram("h2", []float64{100, 1, 10})
	h2.Observe(5)
	if got := r.Snapshot().Histograms["h2"]; got.Counts[1] != 1 {
		t.Errorf("unsorted-bounds histogram: counts = %v, want observation in bucket 1", got.Counts)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("vm.instr", "kind", "call").Add(42)
	r.Counter("rt.traps", "kind", "btra").Add(3)
	r.Gauge("vm.icache.hit_rate").Set(0.97)
	r.Histogram("attack.leak_words", []float64{64, 512, 4096}).Observe(1024)
	r.Histogram("bench.measure.seconds", LatencyBounds, "machine", "epyc").Observe(3)

	var buf bytes.Buffer
	if err := r.WriteJSONMeta(&buf, nil); err != nil {
		t.Fatalf("WriteJSONMeta: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	orig := r.Snapshot()
	if len(back.Counters) != len(orig.Counters) {
		t.Errorf("counters: got %d, want %d", len(back.Counters), len(orig.Counters))
	}
	for k, v := range orig.Counters {
		if back.Counters[k] != v {
			t.Errorf("counter %q: got %d, want %d", k, back.Counters[k], v)
		}
	}
	if back.Gauges["vm.icache.hit_rate"] != 0.97 {
		t.Errorf("gauge lost in round trip: %v", back.Gauges)
	}
	h := back.Histograms["attack.leak_words"]
	if h.Count != 1 || len(h.Bounds) != 3 || len(h.Counts) != 4 || h.Counts[3] != 0 || h.Counts[2] != 1 {
		t.Errorf("histogram mangled in round trip: %+v", h)
	}
	lh := back.Histograms[Key("bench.measure.seconds", "machine", "epyc")]
	if lh.Count != 1 || lh.Sum != 3 || len(lh.Counts) != len(LatencyBounds)+1 {
		t.Errorf("latency histogram mangled in round trip: %+v", lh)
	}
	// Two snapshots of the same state serialize identically (map keys are
	// sorted by encoding/json).
	var buf2 bytes.Buffer
	if err := r.WriteJSONMeta(&buf2, nil); err != nil {
		t.Fatalf("WriteJSONMeta: %v", err)
	}
	if buf.String() != buf2.String() {
		t.Errorf("snapshot JSON is not deterministic")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	var o *Observer
	// None of these may panic.
	r.Counter("c").Add(1)
	r.Gauge("g").Set(1)
	r.Gauge("g").SetMax(1)
	r.Histogram("h", []float64{1}).Observe(1)
	r.Histogram("t.seconds", LatencyBounds).Observe(1)
	o.Counter("c").Inc()
	o.Gauge("g").Add(1)
	o.Histogram("h", nil).Observe(0)
	o.Histogram("t.seconds", LatencyBounds).Observe(1)
	o.Emit("kind", nil)
	(&Observer{}).Emit("kind", nil)
	if o.Enabled() || o.Profiling() {
		t.Errorf("nil observer reports enabled")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Errorf("nil registry snapshot not empty")
	}
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 {
		t.Errorf("nil metrics returned nonzero values")
	}
}

func TestTopCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter("vm.func.self_cycles", "fn", "hot").Add(1000)
	r.Counter("vm.func.self_cycles", "fn", "warm").Add(100)
	r.Counter("vm.func.self_cycles", "fn", "cold").Add(10)
	r.Counter("other").Add(99999)
	top := r.Snapshot().TopCounters("vm.func.self_cycles", 2)
	if len(top) != 2 {
		t.Fatalf("got %d entries, want 2", len(top))
	}
	if name, labels := ParseKey(top[0].Key); name != "vm.func.self_cycles" || labels["fn"] != "hot" {
		t.Errorf("top entry = %q, want fn=hot", top[0].Key)
	}
	if top[1].Value != 100 {
		t.Errorf("second entry = %v, want 100", top[1].Value)
	}
}
