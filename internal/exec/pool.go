package exec

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"r2c/internal/telemetry"
)

// fanOut is the engine's one fan-out: it runs fn(0..n-1) on Jobs() workers
// and returns the per-index error slice, one slot per item, so batch callers
// see every failure instead of only the first. Items are identified by
// index; callers write results into index-addressed slots, so the merged
// output is in submission order no matter how the scheduler interleaves
// workers — the property that keeps a -jobs 8 sweep byte-identical to
// -jobs 1. Every item runs even when another fails, so "which items ran"
// never depends on scheduling.
//
// Each item is one in-flight entry on /progress; fn gets the worker index
// (which worker runs which item is a scheduling accident — results must
// never depend on w) and the entry's phase hook. Panics in fn are isolated
// per item. A cancelled ctx stops dispatch: items not yet started fail with
// ctx.Err() without running, while items already in flight finish on their
// own (a cell's run polls ctx between fuel chunks; the fan-out does not
// stop it). ctx may be nil. The worker count and the queue depth are reported as the
// "exec.pool.workers" and "exec.pool.queue_depth" gauges.
func (e *Engine) fanOut(ctx context.Context, n int, fn func(i, w int, track func(phase string)) error) []error {
	e.prog.addBatch(n)
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	width := min(e.Jobs(), n)
	e.Obs.Gauge("exec.pool.workers").Set(float64(width))
	depth := e.Obs.Gauge("exec.pool.queue_depth")
	var pending, next atomic.Int64
	pending.Store(int64(n))
	depth.Set(float64(n))

	errs := make([]error, n)
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			depth.Set(float64(pending.Add(-1)))
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = e.runItem(fn, i, w)
		}
	}
	if width <= 1 {
		work(0) // serially, on the caller's goroutine
		return errs
	}
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
	return errs
}

// runItem runs fn(i, w) as one /progress entry behind a recover barrier: a
// panicking item becomes a *PanicError instead of killing the process, so
// one bad cell degrades to a reported failure while the rest of the sweep
// completes. The error message carries only the panic value (deterministic
// at any width); the goroutine stack rides along in the Stack field for
// forensics.
func (e *Engine) runItem(fn func(i, w int, track func(phase string)) error, i, w int) (err error) {
	handle, track := e.prog.begin(i, w)
	defer e.prog.end(handle)
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i, w, track)
}

// batchKind names the telemetry of one batch driver: the root span and its
// item-count attribute, the per-item child span, the per-item latency
// histogram and the failure counter.
type batchKind struct {
	root, size, item  string
	latency, failures string
}

var (
	cellBatch  = batchKind{"exec.batch", "cells", "cell", "exec.cell.seconds", "exec.cell.failures"}
	imageBatch = batchKind{"exec.images", "variants", "variant", "exec.images.build.seconds", "exec.images.failures"}
)

// runBatch is the driver RunCells and BuildImages share. It fans fn(0..n-1)
// out under a root span (one per batch, keyed by the engine's batch
// sequence) with a child span per item carrying its lane (TID), index and
// outcome ("status", plus "error" on failure), times each item into the
// latency histogram, and folds the failures into a *BatchError in index
// order, each counted once. Span ids derive from (parent, name, index), not
// from scheduling, so the same submission produces the same span tree at
// any -jobs width. The root span is returned open for the caller's own
// attributes and children; the caller ends it.
func (e *Engine) runBatch(ctx context.Context, k batchKind, n int, fn func(i, w int, sp *telemetry.Span, track func(phase string)) error) (*telemetry.Span, *BatchError) {
	root := e.Obs.StartSpan(k.root, e.batchSeq.Add(1))
	root.SetAttr(k.size, n)
	latency := e.Obs.Histogram(k.latency, telemetry.LatencyBounds)
	errs := e.fanOut(ctx, n, func(i, w int, track func(phase string)) error {
		start := time.Now()
		defer func() { latency.Observe(time.Since(start).Seconds()) }()
		sp := root.Child(k.item, uint64(i))
		defer sp.End()
		sp.SetTID(w + 1)
		sp.SetAttr("index", i)
		if err := fn(i, w, sp, track); err != nil {
			sp.SetAttr("status", "failed")
			sp.SetAttr("error", err.Error())
			return err
		}
		sp.SetAttr("status", "ok")
		return nil
	})
	var failures []*CellError
	for i, err := range errs {
		if err != nil {
			failures = append(failures, &CellError{Index: i, Err: err})
			e.Obs.Counter(k.failures).Inc()
		}
	}
	if failures == nil {
		return root, nil
	}
	return root, &BatchError{Total: n, Failures: failures}
}
