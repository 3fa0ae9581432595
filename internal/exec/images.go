package exec

import (
	"context"

	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
)

// BuildImages fans len(seeds) image builds of (m, cfg, seeds[i]) out across
// the engine's workers and returns the linked images in seed order. It is
// the build-only sibling of RunCells for callers that never execute the
// variants — the diversity auditor links N re-diversified images and
// analyzes their layouts. Builds share the content-addressed cache
// (re-auditing a config the sweep already built costs nothing), appear on
// /progress as in-flight cells in Cache.Image's "cache-lookup" and "build"
// phases, and trace as an "exec.images" root span with one "variant" child
// per index, ids derived from the index so the span tree is identical at
// any -jobs width.
//
// Every seed builds even when another fails; failed slots stay nil and the
// returned error is a *BatchError listing every failure in index order
// (panics included, via the fan-out's isolation), mirroring RunCells'
// partial-result contract.
func (e *Engine) BuildImages(ctx context.Context, m *tir.Module, cfg defense.Config, seeds []uint64) ([]*image.Image, error) {
	images := make([]*image.Image, len(seeds))
	batch, be := e.runBatch(ctx, imageBatch, len(seeds), func(i, _ int, sp *telemetry.Span, track func(phase string)) error {
		sp.SetAttr("seed", seeds[i])
		img, hit, err := e.Cache.Image(m, cfg, seeds[i], sp, track)
		if err != nil {
			return err
		}
		if hit {
			sp.SetAttr("cache", "hit")
		} else {
			sp.SetAttr("cache", "miss")
		}
		images[i] = img
		return nil
	})
	batch.SetAttr("config", cfg.Name)
	batch.End()
	if be != nil {
		return images, be
	}
	return images, nil
}
