package exec

import (
	"context"
	"time"

	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
)

// BuildImages fans len(seeds) image builds of (m, cfg, seeds[i]) across the
// pool and returns the linked images in seed order. It is the build-only
// sibling of RunCells for callers that never execute the variants — the
// diversity auditor links N re-diversified images and analyzes their
// layouts. Builds share the content-addressed cache (re-auditing a config
// the sweep already built costs nothing), appear on /progress as in-flight
// cells in the "audit-build" phase, and trace as an "exec.images" root span
// with one "variant" child per index, ids derived from the index so the
// span tree is identical at any -jobs width.
//
// Every seed builds even when another fails; failed slots stay nil and the
// returned error is a *BatchError listing every failure in index order
// (panics included, via the pool's isolation), mirroring RunCells'
// partial-result contract.
func (e *Engine) BuildImages(ctx context.Context, m *tir.Module, cfg defense.Config, seeds []uint64) ([]*image.Image, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	images := make([]*image.Image, len(seeds))
	batch := e.Obs.StartSpan("exec.images", e.batchSeq.Add(1))
	batch.SetAttr("variants", len(seeds))
	batch.SetAttr("config", cfg.Name)
	defer batch.End()
	e.prog.addBatch(len(seeds))
	latency := e.Obs.Histogram("exec.images.build.seconds", telemetry.LatencyBounds)
	errs := e.Pool.MapErrs(ctx, len(seeds), func(i, w int) error {
		start := time.Now()
		defer func() { latency.Observe(time.Since(start).Seconds()) }()
		handle, track := e.prog.begin(i, w)
		defer e.prog.end(handle)
		track("audit-build")
		sp := batch.Child("variant", uint64(i))
		defer sp.End()
		sp.SetTID(w + 1)
		sp.SetAttr("index", i)
		sp.SetAttr("seed", seeds[i])
		img, hit, err := e.Cache.ImageSpan(m, cfg, seeds[i], sp, track)
		if err != nil {
			sp.SetAttr("status", "failed")
			sp.SetAttr("error", err.Error())
			return err
		}
		if hit {
			sp.SetAttr("cache", "hit")
		} else {
			sp.SetAttr("cache", "miss")
		}
		sp.SetAttr("status", "ok")
		images[i] = img
		return nil
	})
	var failures []*CellError
	for i, err := range errs {
		if err == nil {
			continue
		}
		ce, ok := err.(*CellError)
		if !ok {
			ce = &CellError{Index: i, Err: err}
		}
		failures = append(failures, ce)
		e.Obs.Counter("exec.images.failures").Inc()
	}
	if len(failures) > 0 {
		return images, &BatchError{Total: len(seeds), Failures: failures}
	}
	return images, nil
}
