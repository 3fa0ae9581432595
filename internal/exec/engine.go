package exec

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"r2c/internal/defense"
	"r2c/internal/incident"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
)

// Cell is one independent simulation: build (module, cfg, seed), load a
// fresh process, run it to completion on a machine profile. Cells are pure —
// the result is a function of the four fields — which is what lets the
// engine run them in any order, reuse builds across them, and replay
// journaled results on resume.
type Cell struct {
	Module *tir.Module
	Cfg    defense.Config
	Seed   uint64
	Prof   *vm.Profile
}

// CellError wraps a cell failure with the index of the cell that failed, so
// callers can attach experiment-level context (benchmark name, config) to
// exactly the right cell.
type CellError struct {
	Index int
	Err   error
}

func (e *CellError) Error() string { return fmt.Sprintf("cell %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying cell error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Engine bundles the fan-out, the build cache, the observer and the
// incident log behind one handle — the run context experiment drivers and
// attack scenarios carry around. Build one with New; bench constructs a
// default one when none is supplied.
type Engine struct {
	Cache *Cache
	// Obs is attached to every process the engine loads and receives the
	// engine's own metrics (per-cell timers, fan-out gauges, cache counters,
	// retry/timeout/panic counters) and the pipeline spans (batch → cell →
	// cache-lookup/build/load/exec).
	Obs *telemetry.Observer

	// CellFuel is the per-cell VM instruction allowance (-cell-fuel); 0
	// means sim.DefaultBudget. It is the one bound on a cell: a cell that
	// exhausts it fails with a *CellTimeoutError instead of hanging the
	// sweep, at the same instruction on every host.
	CellFuel uint64

	// Retries is how many times a failed cell is re-attempted (-retries);
	// retry attempts run with a seed deterministically derived from the
	// cell's content key, so results never depend on wall clock or
	// scheduling.
	Retries int

	// Faults is the fault-injection hook: tests and the -faults flag
	// script build/exec failures and panics at exact (cell, attempt)
	// points. Nil injects nothing.
	Faults *FaultPlan

	// Journal, when set, persists completed cell results keyed by the
	// content-addressed build key + machine profile; cells already
	// journaled replay without executing (-journal on a non-empty file).
	Journal *Journal

	// Incidents, when set, collects an incident record (trap provenance +
	// flight-recorder snapshot) for every cell that stops on a trap or
	// fault. Cells replayed from the journal never produce incidents: a
	// replay has no process to snapshot, and the original run already
	// recorded the incident.
	Incidents *incident.Log

	// Series, when set, receives deterministic time-series samples from the
	// ordered merge loop every seriesStride completed cells: the trajectory
	// axis is the cumulative completed cell count (never wall clock), so
	// -timeseries-out artifacts are byte-identical at any -jobs width.
	Series *telemetry.SeriesSet

	// jobs is the worker count: 0 means GOMAXPROCS, 1 runs serially on the
	// caller's goroutine.
	jobs int

	// prog backs Progress; batchSeq keys one root span per RunCells or
	// BuildImages call. Both are observational only.
	prog     progressState
	batchSeq atomic.Uint64

	// seriesMu orders Series sampling (and the cumulative cell counter)
	// across concurrent RunCells calls.
	seriesMu  sync.Mutex
	cellsDone int
}

// seriesStride is the number of completed cells between two Series samples.
const seriesStride = 16

// New returns an engine with a fresh cache that fans out on the given
// number of workers (0 = GOMAXPROCS, 1 = serial). obs may be nil.
func New(jobs int, obs *telemetry.Observer) *Engine {
	return &Engine{jobs: jobs, Cache: NewCache(obs), Obs: obs}
}

// Jobs returns the engine's effective parallelism.
func (e *Engine) Jobs() int {
	if e.jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.jobs
}

// HitRateString formats a build-cache hit rate as a percentage, or "n/a"
// when no lookup has happened — a zero-build run has no meaningful
// rate, and 0/0 would otherwise render as NaN.
func HitRateString(hits, misses uint64) string {
	if hits+misses == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
}

// Footer returns the one-line run summary the cmd harnesses print on exit:
// effective parallelism and build-cache economy for the whole invocation.
func (e *Engine) Footer(tool string) string {
	hits, misses, _ := e.Cache.Stats()
	s := fmt.Sprintf("[%s: %d jobs; build cache: %d hits / %d misses (%s hit rate)",
		tool, e.Jobs(), hits, misses, HitRateString(hits, misses))
	if jh := e.Journal.Hits(); jh > 0 {
		s += fmt.Sprintf("; journal: %d cells replayed", jh)
	}
	return s + "]"
}

// RetrySeed derives the diversification seed for retry attempt n of the cell
// identified by key. It hashes the content key rather than perturbing the
// original seed arithmetically, so retry seeds are deterministic across
// runs, widths, and resumes (no wall clock anywhere) yet never collide with
// the sweep's own seed schedule.
func RetrySeed(key Key, attempt int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key.Module))
	h.Write([]byte{0})
	h.Write([]byte(key.Config))
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(key.Seed >> (8 * i))
		buf[8+i] = byte(uint64(attempt) >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// RunCells fans the cells out across the engine's workers and returns their
// results in submission order. Every cell runs to completion even if another
// fails — failed cells leave a nil slot, and the returned error is nil or a
// *BatchError listing every failed cell in index order (its Unwrap exposes
// the lowest-index *CellError), so both partial results and error reporting
// are independent of scheduling. Identical (module, cfg, seed) cells share
// one build through the cache but never a process.
//
// Per cell, the engine applies the configured fault tolerance: journal
// replay (skip cells an earlier run already journaled), the fuel
// watchdog, panic isolation (a panicking cell becomes a *PanicError in its
// slot while its siblings finish), and bounded retry with content-derived
// seeds. Successful cells are byte-identical to a clean serial run at any
// -jobs width.
//
// When the engine's observer carries a span sink, the batch traces as one
// "exec.batch" root with a "cell" child per index (cache-lookup → build →
// load → sim.exec children; retries nest under a "retry" child) and a final
// "merge" child, with the same span tree at any -jobs width.
func (e *Engine) RunCells(ctx context.Context, cells []Cell) ([]*vm.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*vm.Result, len(cells))
	submitted := time.Now()
	batch, be := e.runBatch(ctx, cellBatch, len(cells), func(i, w int, sp *telemetry.Span, track func(phase string)) error {
		c := &cells[i]
		sp.SetAttr("worker", w)
		sp.SetAttr("seed", c.Seed)
		sp.SetAttr("config", c.Cfg.Name)
		sp.SetAttr("queued_ns", time.Since(submitted).Nanoseconds())
		var err error
		results[i], err = e.runCellAttempts(ctx, i, c, sp, track)
		return err
	})
	defer batch.End()
	// The modeled-cycle distribution is observed here, in the ordered merge
	// loop, not on the workers: bucket counts would be order-independent
	// either way, but the float sum accumulates in fold order, and folding
	// in submission order is what keeps the histogram — and every baseline
	// derived from it — byte-identical between -jobs 1 and -jobs 8.
	cyc := e.Obs.Histogram("exec.run.cycles", telemetry.CycleBounds)
	if cyc == nil && e.Series != nil {
		// No observer, but a series sampler: the sampled quantiles still need
		// a histogram to fold into, so own a private one for this batch.
		cyc = telemetry.NewHistogram(telemetry.CycleBounds)
	}
	e.seriesMu.Lock()
	for _, res := range results {
		if res == nil {
			continue
		}
		cyc.Observe(res.Cycles)
		// Time-series sampling shares the merge loop's determinism argument:
		// the axis is the submission-ordered completed-cell count and the
		// sampled quantiles come from the merge-ordered histogram, so the
		// rings never see scheduling. Wall-clock series (exec.cell.seconds)
		// are deliberately not sampled — they would break the byte-identical
		// -timeseries-out contract.
		if e.Series != nil {
			e.cellsDone++
			if e.cellsDone%seriesStride == 0 {
				t := float64(e.cellsDone)
				snap := cyc.Snapshot()
				e.Series.Sample(t, "exec.cells.done", t)
				e.Series.Sample(t, "exec.run.cycles.p50", snap.Quantile(0.50))
				e.Series.Sample(t, "exec.run.cycles.p99", snap.Quantile(0.99))
				if snap.Count > 0 {
					e.Series.Sample(t, "exec.run.cycles.mean", snap.Sum/float64(snap.Count))
				}
			}
		}
	}
	e.seriesMu.Unlock()
	merge := batch.Child("merge", 0)
	merge.SetAttr("cells", len(cells))
	var err error
	if be != nil {
		for _, f := range be.Failures {
			var pe *PanicError
			var te *CellTimeoutError
			switch {
			case errors.As(f, &pe):
				e.Obs.Counter("exec.cell.panics").Inc()
			case errors.As(f, &te):
				e.Obs.Counter("exec.cell.timeouts").Inc()
			}
		}
		merge.SetAttr("failed", len(be.Failures))
		merge.SetAttr("error", be.Error())
		err = be
	}
	merge.End()
	return results, err
}

// MapTracked runs fn(0..n-1) across the engine's workers — the one fan-out
// for work that is not a cell (the attack harness's Monte-Carlo trials, the
// web and memory experiments) — and returns the failing item with the
// lowest index, so error reporting is deterministic. Panics in fn are
// isolated per item, and each item shows on the engine's live Progress as
// an in-flight cell in the given phase.
func (e *Engine) MapTracked(ctx context.Context, n int, phase string, fn func(i int) error) error {
	errs := e.fanOut(ctx, n, func(i, _ int, track func(phase string)) error {
		track(phase)
		return fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCellAttempts is the per-cell fault-tolerance wrapper around runCell:
// journal replay, then up to 1+Retries fuel-bounded attempts, back to back.
// Retry attempts re-diversify with a RetrySeed-derived seed — a
// deterministic function of the cell's content key, never of time — and a
// success on any attempt journals under the cell's original key so a
// resume finds it.
func (e *Engine) runCellAttempts(ctx context.Context, i int, c *Cell, sp *telemetry.Span, track func(phase string)) (*vm.Result, error) {
	key := e.Cache.Key(c.Module, c.Cfg, c.Seed)
	if res, ok := e.Journal.Lookup(key, c.Prof.Name); ok {
		e.Obs.Counter("exec.journal.hits").Inc()
		sp.SetAttr("journal", "hit")
		track("journal")
		return res, nil
	}
	var lastErr error
	for attempt := 0; attempt <= e.Retries; attempt++ {
		if attempt > 0 {
			e.Obs.Counter("exec.cell.retries").Inc()
		}
		res, err := e.runCellAttempt(ctx, i, attempt, c, key, sp, track)
		if err == nil {
			sp.SetAttr("attempts", attempt+1)
			if jerr := e.Journal.Record(key, c.Prof.Name, res); jerr != nil {
				// A journaling failure must not fail a successful
				// cell; surface it observationally and move on.
				sp.SetAttr("journal_error", jerr.Error())
				e.Obs.Counter("exec.journal.errors").Inc()
			}
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the whole run is cancelled; retrying is pointless
		}
	}
	return nil, lastErr
}

// runCellAttempt runs one fuel-bounded attempt: fault injection first (so
// tests can force the failure modes), then the traced build/load/exec
// pipeline. Attempt 0 traces directly under the cell span — the clean-run
// span tree is unchanged — while retries nest under a "retry" child keyed
// by attempt number, keeping span ids unique and deterministic.
func (e *Engine) runCellAttempt(ctx context.Context, i, attempt int, c *Cell, key Key, parent *telemetry.Span, track func(phase string)) (*vm.Result, error) {
	sp := parent
	seed := c.Seed
	if attempt > 0 {
		sp = parent.Child("retry", uint64(attempt))
		defer sp.End()
		seed = RetrySeed(key, attempt)
		sp.SetAttr("attempt", attempt)
		sp.SetAttr("seed", seed)
	}
	switch e.Faults.At(i, attempt) {
	case FaultBuildFail:
		return nil, fmt.Errorf("fault injection: forced build failure (cell %d, attempt %d)", i, attempt)
	case FaultExecFail:
		return nil, fmt.Errorf("fault injection: forced exec failure (cell %d, attempt %d)", i, attempt)
	case FaultPanic:
		panic(fmt.Sprintf("fault injection: forced panic (cell %d, attempt %d)", i, attempt))
	}
	res, err := e.runCell(ctx, i, c, seed, sp, track)
	if errors.Is(err, vm.ErrFuelExhausted) {
		fuel := e.CellFuel
		if fuel == 0 {
			fuel = sim.DefaultBudget
		}
		return res, &CellTimeoutError{Index: i, Fuel: fuel, Err: err}
	}
	return res, err
}

// runCell is the traced per-cell pipeline: cached image (cache-lookup and,
// on a miss, build spans inside Cache.Image), process load, execution under
// the run's context and the engine's fuel allowance. When the fuel watchdog
// does not fire it retires exactly what sim.Run of the same cell would — the
// cache, the span and the track arguments only observe.
func (e *Engine) runCell(ctx context.Context, i int, c *Cell, seed uint64, sp *telemetry.Span, track func(phase string)) (*vm.Result, error) {
	imgStart := time.Now()
	img, hit, err := e.Cache.Image(c.Module, c.Cfg, seed, sp, track)
	if err != nil {
		return nil, err
	}
	// Phase latency histograms: a miss pays the build, a hit pays only the
	// (possibly blocking, under single-flight) cache load — the
	// build-vs-cached-load split that makes the cache's latency economy
	// visible in /metrics and -metrics-out.
	if hit {
		sp.SetAttr("cache", "hit")
		e.Obs.Histogram("exec.phase.seconds", telemetry.LatencyBounds, "phase", "cached-load").Observe(time.Since(imgStart).Seconds())
	} else {
		sp.SetAttr("cache", "miss")
		e.Obs.Histogram("exec.phase.seconds", telemetry.LatencyBounds, "phase", "build").Observe(time.Since(imgStart).Seconds())
	}
	track("load")
	ls := sp.Child("load", 0)
	loadStart := time.Now()
	proc, err := sim.NewProcessFromImage(img, seed, e.Obs)
	e.Obs.Histogram("exec.phase.seconds", telemetry.LatencyBounds, "phase", "load").Observe(time.Since(loadStart).Seconds())
	ls.End()
	if err != nil {
		return nil, err
	}
	track("execute")
	execStart := time.Now()
	res, err := sim.ExecMachine(ctx, vm.New(proc, c.Prof), e.Obs, sp, e.CellFuel)
	e.Obs.Histogram("exec.phase.seconds", telemetry.LatencyBounds, "phase", "exec").Observe(time.Since(execStart).Seconds())
	// Incident capture happens here, not in the caller: ExecMachine
	// returns a non-nil result alongside its error on faults and traps, and
	// this is the last point where result and process are both in scope
	// (runCellAttempts drops the result on error).
	if e.Incidents != nil && res != nil {
		campaign := "exec/" + c.Module.Name
		switch {
		case res.Trap != nil:
			e.Incidents.Add(incident.FromTrap(campaign, c.Cfg.Name, seed, i, "exec", proc, *res.Trap, res.Instructions))
		case res.Fault != nil:
			e.Incidents.Add(incident.FromFault(campaign, c.Cfg.Name, seed, i, "exec", proc, res.Fault.Addr, res.Instructions))
		}
	}
	return res, err
}
