package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Time-series layer: fixed-capacity rings of (t, v) samples, one per metric
// name, fed on deterministic ticks by whoever owns the relevant clock (the
// fleet's simulated clock, the exec engine's completed-cell count). The
// rings give every scalar metric a trajectory — the temporal dimension the
// windowed alert functions and the /timeseries + /dashboard endpoints read —
// without touching the registry: a sample is an explicit, clock-stamped
// observation, so the ring contents are byte-identical at any -jobs width
// as long as the sampler's clock is.

// DefaultSeriesCap is the per-series ring capacity when the caller does not
// choose one: enough for a few hundred ticks of trajectory at sparkline
// resolution while keeping a fleet-sized set comfortably in cache.
const DefaultSeriesCap = 512

// TimeSeries is one named series: a fixed-capacity ring of (t, v) samples.
// Pushing past capacity overwrites the oldest sample and counts it as
// dropped — the ring never allocates after construction.
type TimeSeries struct {
	name    string
	t, v    []float64
	head    int // index of the oldest sample
	n       int
	dropped uint64
}

func newTimeSeries(name string, capacity int) *TimeSeries {
	return &TimeSeries{name: name, t: make([]float64, capacity), v: make([]float64, capacity)}
}

// push appends one sample, reporting whether it overwrote the oldest.
func (s *TimeSeries) push(t, v float64) bool {
	if s.n < len(s.t) {
		i := (s.head + s.n) % len(s.t)
		s.t[i], s.v[i] = t, v
		s.n++
		return false
	}
	s.t[s.head], s.v[s.head] = t, v
	s.head = (s.head + 1) % len(s.t)
	s.dropped++
	return true
}

// At returns the i-th oldest live sample.
func (s *TimeSeries) At(i int) (t, v float64) {
	j := (s.head + i) % len(s.t)
	return s.t[j], s.v[j]
}

// SeriesSet is a concurrency-safe collection of TimeSeries rings. The
// sampler side calls Sample from the loop that owns the clock; the consumer
// side (ops endpoints, -timeseries-out, windowed alerts) reads immutable
// Snapshot views. A nil SeriesSet ignores samples and snapshots empty, so
// sampling call sites need no guards — the same write-beside contract as
// the Observer.
type SeriesSet struct {
	mu     sync.Mutex
	cap    int
	obs    *Observer
	series map[string]*TimeSeries
	now    float64
}

// NewSeriesSet returns a set whose rings hold capacity samples each
// (<= 0 picks DefaultSeriesCap). obs, when non-nil, receives the
// telemetry.series.dropped counter on ring overwrite.
func NewSeriesSet(capacity int, obs *Observer) *SeriesSet {
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	return &SeriesSet{cap: capacity, obs: obs, series: map[string]*TimeSeries{}}
}

// Sample records value v for the named series at time t. Non-finite values
// are skipped — NaN is how an empty histogram quantile says "no data yet",
// and a NaN in a ring would poison every JSON marshal downstream.
func (ss *SeriesSet) Sample(t float64, name string, v float64) {
	if ss == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	ss.mu.Lock()
	s := ss.series[name]
	if s == nil {
		s = newTimeSeries(name, ss.cap)
		ss.series[name] = s
	}
	overwrote := s.push(t, v)
	if t > ss.now {
		ss.now = t
	}
	ss.mu.Unlock()
	if overwrote {
		ss.obs.Counter("telemetry.series.dropped").Inc()
	}
}

// SeriesPoint is one (t, v) sample, marshaled as the two-element array
// [t, v] — half the JSON of an object per point at sparkline densities.
type SeriesPoint [2]float64

// SeriesData is one series in a snapshot.
type SeriesData struct {
	Name string `json:"name"`
	// Dropped counts samples lost to ring overwrite over the series'
	// lifetime — the per-series view of telemetry.series.dropped.
	Dropped uint64        `json:"dropped,omitempty"`
	Points  []SeriesPoint `json:"points"`
}

// SeriesSnapshot is an immutable point-in-time view of a SeriesSet, sorted
// by series name so it marshals deterministically.
type SeriesSnapshot struct {
	Now    float64      `json:"now"`
	Series []SeriesData `json:"series"`
}

// matchSeries reports whether a series name matches a metric reference: an
// exact match, or — for a bare reference — any series sharing that base
// name (label sets) or dotted prefix (derived series like NAME.p99).
func matchSeries(name, metric string) bool {
	if name == metric {
		return true
	}
	if strings.Contains(metric, "{") {
		return false
	}
	return strings.HasPrefix(name, metric+".") || strings.HasPrefix(name, metric+"{")
}

// Snapshot copies the current rings out. filter, when non-empty, keeps only
// series matching one of the references (matchSeries semantics — the
// ?series= parameter); last > 0 keeps only each series' newest last points
// (the ?last= parameter).
func (ss *SeriesSet) Snapshot(filter []string, last int) *SeriesSnapshot {
	snap := &SeriesSnapshot{Series: []SeriesData{}}
	if ss == nil {
		return snap
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	snap.Now = ss.now
	names := make([]string, 0, len(ss.series))
	for name := range ss.series {
		if len(filter) > 0 {
			keep := false
			for _, f := range filter {
				if matchSeries(name, f) {
					keep = true
					break
				}
			}
			if !keep {
				continue
			}
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := ss.series[name]
		start := 0
		if last > 0 && s.n > last {
			start = s.n - last
		}
		sd := SeriesData{Name: name, Dropped: s.dropped, Points: make([]SeriesPoint, 0, s.n-start)}
		for i := start; i < s.n; i++ {
			t, v := s.At(i)
			sd.Points = append(sd.Points, SeriesPoint{t, v})
		}
		snap.Series = append(snap.Series, sd)
	}
	return snap
}

// WriteJSON writes the full snapshot as indented JSON — the -timeseries-out
// artifact. Deterministic samplers make it byte-identical across runs and
// -jobs widths.
func (ss *SeriesSet) WriteJSON(w io.Writer) error {
	body, err := json.MarshalIndent(ss.Snapshot(nil, 0), "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: marshal timeseries: %w", err)
	}
	_, err = w.Write(append(body, '\n'))
	return err
}

// window returns every point of series matching metric with t inside the
// trailing window [now-w, now], concatenated per series in name order.
func (sn *SeriesSnapshot) window(metric string, w float64) [][]SeriesPoint {
	if sn == nil {
		return nil
	}
	var out [][]SeriesPoint
	for _, sd := range sn.Series {
		if !matchSeries(sd.Name, metric) {
			continue
		}
		var pts []SeriesPoint
		for _, p := range sd.Points {
			if p[0] >= sn.Now-w {
				pts = append(pts, p)
			}
		}
		if len(pts) > 0 {
			out = append(out, pts)
		}
	}
	return out
}

// windowRate is the summed per-series rate of change over the trailing
// window: (last - first) / (t_last - t_first) for each matching series with
// at least two spanning samples. For a sampled cumulative counter this is
// its event rate; for a sampled gauge its slope.
func (sn *SeriesSnapshot) windowRate(metric string, w float64) (float64, bool) {
	total, found := 0.0, false
	for _, pts := range sn.window(metric, w) {
		first, last := pts[0], pts[len(pts)-1]
		if last[0] <= first[0] {
			continue
		}
		total += (last[1] - first[1]) / (last[0] - first[0])
		found = true
	}
	return total, found
}

// windowValues flattens every matching sample value in the trailing window.
func (sn *SeriesSnapshot) windowValues(metric string, w float64) []float64 {
	var vals []float64
	for _, pts := range sn.window(metric, w) {
		for _, p := range pts {
			vals = append(vals, p[1])
		}
	}
	return vals
}
