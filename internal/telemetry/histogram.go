package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bound histogram: observation x lands in the first
// bucket whose upper bound satisfies x <= bound; values above every bound
// land in the implicit overflow bucket. The bounds — not the data — fix the
// buckets, so two processes (or two versions of the code) that observe the same values
// produce identical snapshots that merge without loss: a BENCH file written
// last month and a fresh run today bucket the same latencies into the same
// bins, and quantile estimates diff meaningfully. LogBounds generates the
// log-spaced bound sets.
//
// All methods are nil-safe and the counters are atomic, so concurrent
// observers need no lock. Under concurrency the float Sum accumulates in
// scheduling order, so only single-goroutine (or post-merge,
// submission-ordered) observation yields bit-identical sums — the property
// the determinism gates pin for the modeled-cycle histogram.
type Histogram struct {
	bounds []float64       // ascending upper bounds (inclusive)
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    Gauge
}

// NewHistogram returns an empty histogram over a sorted copy of bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. The bucket is found by binary search over the
// bounds (never by floating-point log arithmetic), so placement is exactly
// reproducible.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x: the inclusive upper bound
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(x)
}

// Snapshot copies the histogram into its serialized form.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// LogBounds returns n ascending bounds starting at first and growing
// geometrically by growth (> 1). They are computed by repeated
// multiplication, which is deterministic on every platform (IEEE-754
// multiplication is exactly specified, unlike a per-bucket math.Pow that
// libm could round differently).
func LogBounds(first, growth float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	b := make([]float64, n)
	v := first
	for i := range b {
		b[i] = v
		v *= growth
	}
	return b
}

var (
	// LatencyBounds bucket wall-clock latencies in seconds: 10µs to ~10min
	// in quarter-decade steps, fine enough that a 2x regression moves mass
	// several buckets.
	LatencyBounds = LogBounds(10e-6, 1.7782794100389228, 28) // 10^(1/4) growth
	// CycleBounds bucket modeled per-run cycle counts: 1k to ~10^12 cycles
	// in quarter-decade steps.
	CycleBounds = LogBounds(1e3, 1.7782794100389228, 36)
)

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucketed counts,
// interpolating linearly inside the bucket that contains the target rank
// (the Prometheus histogram_quantile estimator). The first bucket
// interpolates from 0; the overflow bucket clamps to the last finite bound,
// so an estimate never invents mass beyond what the histogram can resolve.
// An empty snapshot returns NaN.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo := float64(cum)
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1] // overflow: clamp to last bound
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		frac := 0.0
		if c > 0 {
			frac = (rank - lo) / float64(c)
		}
		if frac < 0 {
			frac = 0
		}
		return lower + (upper-lower)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// BucketMismatchError reports an attempt to merge two histogram snapshots
// whose bounds differ — either a different bound count or a
// differing bound value. Bucket is -1 for a length mismatch, otherwise the
// index of the first differing bound.
type BucketMismatchError struct {
	LenA, LenB int     // bound counts of the two snapshots
	Bucket     int     // first differing bound index, or -1 for a length mismatch
	A, B       float64 // the differing bound values (zero for a length mismatch)
}

func (e *BucketMismatchError) Error() string {
	if e.Bucket < 0 {
		return fmt.Sprintf("telemetry: merge of histograms with %d vs %d bounds", e.LenA, e.LenB)
	}
	return fmt.Sprintf("telemetry: merge of histograms with different bounds at bucket %d (%v vs %v)", e.Bucket, e.A, e.B)
}

// Merge returns the bucket-wise sum of two snapshots. Merging is
// commutative and associative on the counts (uint64 adds); the float Sum
// adds in argument order, so fold snapshots in a fixed order when
// bit-identical output matters. Snapshots with different bounds cannot be
// merged losslessly and return a *BucketMismatchError.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) (HistogramSnapshot, error) {
	if len(o.Bounds) == 0 && o.Count == 0 {
		return s.clone(), nil
	}
	if len(s.Bounds) == 0 && s.Count == 0 {
		return o.clone(), nil
	}
	if len(s.Bounds) != len(o.Bounds) {
		return HistogramSnapshot{}, &BucketMismatchError{LenA: len(s.Bounds), LenB: len(o.Bounds), Bucket: -1}
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return HistogramSnapshot{}, &BucketMismatchError{LenA: len(s.Bounds), LenB: len(o.Bounds), Bucket: i, A: s.Bounds[i], B: o.Bounds[i]}
		}
	}
	out := s.clone()
	for i := range o.Counts {
		out.Counts[i] += o.Counts[i]
	}
	out.Count += o.Count
	out.Sum += o.Sum
	return out, nil
}

func (s HistogramSnapshot) clone() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: append([]uint64(nil), s.Counts...),
		Count:  s.Count,
		Sum:    s.Sum,
	}
}
