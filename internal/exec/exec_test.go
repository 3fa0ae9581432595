package exec_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

func testModule(t *testing.T) *tir.Module {
	t.Helper()
	b, ok := workload.ByName("nginx")
	if !ok {
		t.Fatal("nginx workload missing")
	}
	return b.Build(8)
}

// A second lookup with the same key must return the identical image object,
// not an equal rebuild.
func TestCacheHitReturnsIdenticalImage(t *testing.T) {
	c := exec.NewCache(nil)
	m := testModule(t)
	cfg := defense.R2CFull()

	img1, hit1, err := c.Image(m, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Error("first lookup reported a hit")
	}
	img2, hit2, err := c.Image(m, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Error("second lookup missed")
	}
	if img1 != img2 {
		t.Error("cache hit returned a different image object")
	}
	if hits, misses, bypasses := c.Stats(); hits != 1 || misses != 1 || bypasses != 0 {
		t.Errorf("stats = %d/%d/%d, want 1/1/0", hits, misses, bypasses)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}

	// Content addressing: a different *tir.Module with identical content maps
	// to the same entry.
	if _, hit, err := c.Image(testModule(t), cfg, 9); err != nil || !hit {
		t.Errorf("content-identical module missed (hit=%v err=%v)", hit, err)
	}
}

// Distinct seeds and distinct configs must never collide.
func TestCacheKeysDoNotCollide(t *testing.T) {
	c := exec.NewCache(nil)
	m := testModule(t)
	seen := map[any]bool{}
	for _, cfg := range []defense.Config{defense.Off(), defense.R2CFull()} {
		for seed := uint64(1); seed <= 2; seed++ {
			img, hit, err := c.Image(m, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Errorf("%s seed %d: unexpected hit", cfg.Name, seed)
			}
			if seen[img] {
				t.Errorf("%s seed %d: image shared across distinct keys", cfg.Name, seed)
			}
			seen[img] = true
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
}

// A process loaded from a cached image must run bit-identically to one from
// a fresh, uncached build.
func TestCachedProcessMatchesFreshBuild(t *testing.T) {
	m := testModule(t)
	cfg := defense.R2CFull()
	eng := exec.New(1, nil)

	// First engine run populates the cache; the second is served from it.
	first, firstProc, err := eng.Run(m, cfg, 7, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	cached, cachedProc, err := eng.Run(m, cfg, 7, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := eng.Cache.Stats(); hits == 0 {
		t.Fatal("second run did not hit the cache")
	}
	fresh, freshProc, err := sim.Run(m, cfg, 7, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}

	for _, pair := range []struct {
		name string
		got  *vm.Result
	}{{"first", first}, {"cached", cached}} {
		if pair.got.Cycles != fresh.Cycles {
			t.Errorf("%s: cycles %0.f, fresh build %0.f", pair.name, pair.got.Cycles, fresh.Cycles)
		}
		if pair.got.Instructions != fresh.Instructions {
			t.Errorf("%s: instructions %d, fresh build %d", pair.name, pair.got.Instructions, fresh.Instructions)
		}
		if !reflect.DeepEqual(pair.got.Output, fresh.Output) {
			t.Errorf("%s: program output diverges from fresh build", pair.name)
		}
		if pair.got.MaxRSSBytes != fresh.MaxRSSBytes {
			t.Errorf("%s: maxrss %d, fresh build %d", pair.name, pair.got.MaxRSSBytes, fresh.MaxRSSBytes)
		}
	}
	// Load-time randomness (guard pages, BTDP values) derives from the run
	// seed, not from whether the image was cached.
	if !reflect.DeepEqual(firstProc.GuardPages, freshProc.GuardPages) ||
		!reflect.DeepEqual(cachedProc.GuardPages, freshProc.GuardPages) {
		t.Error("guard pages diverge from fresh build")
	}
	if !reflect.DeepEqual(firstProc.BTDPValues, freshProc.BTDPValues) ||
		!reflect.DeepEqual(cachedProc.BTDPValues, freshProc.BTDPValues) {
		t.Error("BTDP values diverge from fresh build")
	}
	if firstProc == cachedProc {
		t.Error("engine returned a shared process for two runs")
	}
}

// Configs whose processes may patch the image after loading (the dynamic-
// BTRA ablation) must never share builds.
func TestCacheBypassesImageMutatingConfigs(t *testing.T) {
	c := exec.NewCache(nil)
	m := testModule(t)
	cfg := defense.R2CFull()
	cfg.Name = "r2c-dynamic-btras"
	cfg.InsecureDynamicBTRAs = true

	img1, hit1, err := c.Image(m, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	img2, hit2, err := c.Image(m, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 || hit2 {
		t.Error("uncacheable config reported a hit")
	}
	if img1 == img2 {
		t.Error("uncacheable config shared an image")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
	if _, _, bypasses := c.Stats(); bypasses != 2 {
		t.Errorf("bypasses = %d, want 2", bypasses)
	}
}

// Map must run every index exactly once, merge by index, and report the
// lowest-index failure — at any width.
func TestPoolMapDeterministic(t *testing.T) {
	const n = 300
	for _, jobs := range []int{1, 8} {
		p := exec.NewPool(jobs, nil)
		out := make([]int, n)
		var calls atomic.Int64
		err := p.Map(context.Background(), n, func(i int) error {
			calls.Add(1)
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if calls.Load() != n {
			t.Errorf("jobs=%d: %d calls, want %d", jobs, calls.Load(), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: slot %d = %d", jobs, i, v)
			}
		}

		// Failures: every index still runs, and the lowest failing index wins
		// regardless of scheduling.
		calls.Store(0)
		err = p.Map(context.Background(), n, func(i int) error {
			calls.Add(1)
			if i%7 == 3 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 3" {
			t.Errorf("jobs=%d: err = %v, want fail 3", jobs, err)
		}
		if calls.Load() != n {
			t.Errorf("jobs=%d: %d calls after failure, want %d", jobs, calls.Load(), n)
		}
	}
}

// RunCells wraps failures as CellError with the failing cell's index, so
// drivers can reconstruct exact per-cell error context.
func TestRunCellsCellError(t *testing.T) {
	m := testModule(t)
	eng := exec.New(2, nil)
	bad := &tir.Module{Name: "bad", Entry: "missing"}
	cells := []exec.Cell{
		{Module: m, Cfg: defense.Off(), Seed: 1, Prof: vm.EPYCRome()},
		{Module: bad, Cfg: defense.Off(), Seed: 1, Prof: vm.EPYCRome()},
	}
	_, err := eng.RunCells(context.Background(), cells)
	if err == nil {
		t.Fatal("module without entry function built successfully")
	}
	var ce *exec.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a CellError", err)
	}
	if i, cause := exec.SplitError(err); i != 1 || cause == nil {
		t.Errorf("SplitError = (%d, %v), want index 1", i, cause)
	}
}

// TestCleanRunRecordsLatencyHistograms pins the engine's wall-clock
// telemetry on a clean run: one exec.cell.seconds, cache-lookup, load and
// exec observation per cell, and one build or cached-load each. Observing
// leaves every result as an unobserved run produces it.
func TestCleanRunRecordsLatencyHistograms(t *testing.T) {
	m := testModule(t)
	cells := cellsN(m, 3)
	cells = append(cells, cells[0]) // the repeat is a cache hit

	want, err := exec.New(1, nil).RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	obs := &telemetry.Observer{Registry: telemetry.NewRegistry()}
	got, err := exec.New(1, obs).RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Cycles != want[i].Cycles || got[i].Instructions != want[i].Instructions {
			t.Errorf("cell %d: observed result differs from unobserved run", i)
		}
	}

	hists := obs.Registry.Snapshot().Histograms
	n := uint64(len(cells))
	for key, count := range map[string]uint64{
		"exec.cell.seconds":                     n,
		"exec.cache.lookup.seconds":             n,
		"exec.phase.seconds{phase=load}":        n,
		"exec.phase.seconds{phase=exec}":        n,
		"exec.phase.seconds{phase=build}":       n - 1,
		"exec.phase.seconds{phase=cached-load}": 1,
	} {
		if h, ok := hists[key]; !ok || h.Count != count {
			t.Errorf("%s: %+v, want %d observations", key, h, count)
		}
	}
}
