package exec

import (
	"sort"
	"sync"
	"time"

	"r2c/internal/telemetry"
)

// progressState is the engine's live view of the run, feeding the ops
// endpoint's /progress. It is write-beside state in the same sense as
// telemetry: cells update it as they move through the pipeline, readers only
// snapshot it, and nothing in the simulation ever reads it back.
type progressState struct {
	mu       sync.Mutex
	start    time.Time
	total    int
	done     int
	inflight map[*inflightCell]struct{}
}

type inflightCell struct {
	index   int
	worker  int
	phase   string
	started time.Time
}

// addBatch registers n more cells as submitted.
func (p *progressState) addBatch(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.start.IsZero() {
		p.start = time.Now()
	}
	p.total += n
}

// begin marks cell i as picked up by worker w. It returns the in-flight
// handle (cells are keyed by handle, not index, so overlapping batches with
// colliding indices stay distinct) plus the phase-update hook handed down the
// pipeline.
func (p *progressState) begin(i, w int) (*inflightCell, func(phase string)) {
	c := &inflightCell{index: i, worker: w, phase: "queued", started: time.Now()}
	p.mu.Lock()
	if p.inflight == nil {
		p.inflight = make(map[*inflightCell]struct{})
	}
	p.inflight[c] = struct{}{}
	p.mu.Unlock()
	return c, func(phase string) {
		p.mu.Lock()
		c.phase = phase
		p.mu.Unlock()
	}
}

// end marks the cell as finished.
func (p *progressState) end(c *inflightCell) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.inflight, c)
	p.done++
}

// CellStatus describes one in-flight cell in a Progress snapshot.
type CellStatus struct {
	Index     int    `json:"index"`
	Worker    int    `json:"worker"`
	Phase     string `json:"phase"`
	ElapsedMs int64  `json:"elapsed_ms"`
}

// Progress is the point-in-time run snapshot served at /progress. Counts are
// cumulative over the engine's lifetime, spanning every RunCells batch.
type Progress struct {
	Done     int          `json:"done"`
	Total    int          `json:"total"`
	InFlight []CellStatus `json:"in_flight"`
	// CacheHits/CacheMisses mirror the engine cache; CacheHitRate is
	// hits/(hits+misses) as a percentage string, or "n/a" before any
	// lookup.
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheHitRate string `json:"cache_hit_rate"`
	ElapsedMs    int64  `json:"elapsed_ms"`
	// EtaMs linearly extrapolates the remaining cells from the per-cell
	// throughput so far; -1 while no cell has finished. Eta is the human
	// rendering of the same value — "n/a" while there is no estimate —
	// so /progress consumers never see a sentinel or non-finite number.
	EtaMs int64  `json:"eta_ms"`
	Eta   string `json:"eta"`
}

// snapshot captures the current progress. now is time.Now, injectable for
// tests.
func (p *progressState) snapshot(now time.Time) Progress {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Progress{Done: p.done, Total: p.total, EtaMs: -1, Eta: "n/a"}
	if !p.start.IsZero() {
		s.ElapsedMs = now.Sub(p.start).Milliseconds()
	}
	for c := range p.inflight {
		s.InFlight = append(s.InFlight, CellStatus{
			Index:     c.index,
			Worker:    c.worker,
			Phase:     c.phase,
			ElapsedMs: now.Sub(c.started).Milliseconds(),
		})
	}
	sort.Slice(s.InFlight, func(a, b int) bool { return s.InFlight[a].Index < s.InFlight[b].Index })
	if p.done > 0 && p.total > p.done && s.ElapsedMs > 0 {
		s.EtaMs = s.ElapsedMs * int64(p.total-p.done) / int64(p.done)
	}
	s.Eta = telemetry.FormatETA(float64(s.EtaMs))
	return s
}

// Progress returns the engine's live run snapshot: cumulative cell counts,
// the cells currently in flight with their pipeline phase and worker lane,
// cache effectiveness, and a throughput-extrapolated ETA. Safe to call from
// any goroutine while cells run; intended as the -listen /progress source.
func (e *Engine) Progress() Progress {
	s := e.prog.snapshot(time.Now())
	hits, misses, _ := e.Cache.Stats()
	s.CacheHits, s.CacheMisses = hits, misses
	s.CacheHitRate = HitRateString(hits, misses)
	return s
}
