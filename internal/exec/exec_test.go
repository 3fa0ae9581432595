package exec_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/image"
	"r2c/internal/rt"
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

	img1, hit1, err := c.Image(m, cfg, 9, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Error("first lookup reported a hit")
	}
	img2, hit2, err := c.Image(m, cfg, 9, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Error("second lookup missed")
	}
	if img1 != img2 {
		t.Error("cache hit returned a different image object")
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1/1", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}

	// Content addressing: a different *tir.Module with identical content maps
	// to the same entry.
	if _, hit, err := c.Image(testModule(t), cfg, 9, nil, nil); err != nil || !hit {
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
			img, hit, err := c.Image(m, cfg, seed, nil, nil)
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

// cacheWithGauge returns an empty cache reporting into a fresh registry and
// a check that Len and the exec.cache.entries gauge both read want.
func cacheWithGauge(t *testing.T) (*exec.Cache, *telemetry.Registry, func(want int)) {
	reg := telemetry.NewRegistry()
	c := exec.NewCache(&telemetry.Observer{Registry: reg})
	return c, reg, func(want int) {
		t.Helper()
		if n, g := c.Len(), reg.Gauge("exec.cache.entries").Value(); n != want || g != float64(want) {
			t.Fatalf("Len = %d, exec.cache.entries = %g, want %d", n, g, want)
		}
	}
}

// Dropping a key the cache does not hold changes nothing: the held entry
// still hits and the counters do not move.
func TestCacheDropUnknownKeyIsNoop(t *testing.T) {
	c, _, entries := cacheWithGauge(t)
	m := testModule(t)
	cfg := defense.R2CFull()
	img, _, err := c.Image(m, cfg, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Drop(m, cfg, 2)
	c.Drop(m, defense.Off(), 1)
	entries(1)
	again, hit, err := c.Image(m, cfg, 1, nil, nil)
	if err != nil || !hit || again != img {
		t.Fatalf("held entry after unrelated drops: hit=%v same=%v err=%v", hit, again == img, err)
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1/1", hits, misses)
	}
}

// After Drop the key misses again and rebuilds a fresh image object that
// equals the dropped one in layout and predecoded code.
func TestCacheDropRebuildsIdenticalImage(t *testing.T) {
	c, _, entries := cacheWithGauge(t)
	m := testModule(t)
	cfg := defense.R2CFull()
	old, _, err := c.Image(m, cfg, 9, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Drop(m, cfg, 9)
	entries(0)
	img, hit, err := c.Image(m, cfg, 9, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit || img == old {
		t.Fatalf("lookup after Drop: hit=%v, same object=%v; want a fresh build", hit, img == old)
	}
	if hits, misses, _ := c.Stats(); hits != 0 || misses != 2 {
		t.Errorf("stats = %d/%d, want 0/2", hits, misses)
	}
	entries(1)
	if !reflect.DeepEqual(img.LayoutSummary(), old.LayoutSummary()) {
		t.Error("rebuilt image's layout summary differs from the dropped one")
	}
	if !reflect.DeepEqual(img.Code.Ops, old.Code.Ops) || !reflect.DeepEqual(img.Code.Blocks, old.Code.Blocks) || !reflect.DeepEqual(img.Code.Classes, old.Code.Classes) {
		t.Error("rebuilt image's predecoded code differs from the dropped one")
	}
}

// A Drop that lands while a build is in flight takes the entry out of the
// map but not out of the single-flight: the builder and a requester already
// waiting on it both receive the build's image, and only a later lookup
// rebuilds.
func TestCacheDropDuringInFlightBuild(t *testing.T) {
	c, reg, entries := cacheWithGauge(t)
	m := testModule(t)
	cfg := defense.R2CFull()
	type result struct {
		img *image.Image
		hit bool
		err error
	}
	building, release := make(chan struct{}), make(chan struct{})
	hold := func(phase string) {
		if phase == "build" {
			close(building)
			<-release
		}
	}
	builder, waiter := make(chan result, 1), make(chan result, 1)
	go func() {
		img, hit, err := c.Image(m, cfg, 5, nil, hold)
		builder <- result{img, hit, err}
	}()
	<-building
	go func() {
		img, hit, err := c.Image(m, cfg, 5, nil, nil)
		waiter <- result{img, hit, err}
	}()
	// Each requester observes its lookup latency after it has taken the
	// entry, so two observations mean the waiter holds the in-flight entry.
	lookups := reg.Histogram("exec.cache.lookup.seconds", telemetry.LatencyBounds)
	for lookups.Snapshot().Count < 2 {
		runtime.Gosched()
	}
	c.Drop(m, cfg, 5)
	entries(0)
	close(release)

	b, w := <-builder, <-waiter
	if b.err != nil || w.err != nil {
		t.Fatal(b.err, w.err)
	}
	if b.hit || !w.hit || b.img != w.img {
		t.Fatalf("builder hit=%v, waiter hit=%v, same image=%v; want one miss and one hit sharing the build", b.hit, w.hit, b.img == w.img)
	}
	later, hit, err := c.Image(m, cfg, 5, nil, nil)
	if err != nil || hit || later == b.img {
		t.Fatalf("lookup after the drop: hit=%v, same image=%v, err=%v; want a rebuild", hit, later == b.img, err)
	}
	entries(1)
}

// Len and the exec.cache.entries gauge follow every insert and every drop.
func TestCacheLenFollowsInsertsAndDrops(t *testing.T) {
	c, _, entries := cacheWithGauge(t)
	m := testModule(t)
	cfg := defense.Off()
	build := func(seed uint64) {
		t.Helper()
		if _, _, err := c.Image(m, cfg, seed, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		build(seed)
		entries(int(seed))
	}
	build(2) // a hit inserts nothing
	entries(3)
	c.Drop(m, cfg, 2)
	entries(2)
	c.Drop(m, cfg, 2)
	entries(2)
	build(4)
	entries(3)
	for _, seed := range []uint64{1, 3, 4} {
		c.Drop(m, cfg, seed)
	}
	entries(0)
}

// A process loaded from a cached image must run bit-identically to one from
// a fresh, uncached build.
func TestCachedProcessMatchesFreshBuild(t *testing.T) {
	m := testModule(t)
	cfg := defense.R2CFull()
	eng := exec.New(1, nil)

	// The first load populates the cache; the second is served from it.
	run := func() (*vm.Result, *rt.Process) {
		t.Helper()
		proc, err := eng.Cache.Process(m, cfg, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.ExecMachine(context.Background(), vm.New(proc, vm.EPYCRome()), nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res, proc
	}
	first, firstProc := run()
	cached, cachedProc := run()
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

// MapTracked must run every index exactly once, merge by index, and report
// the lowest-index failure — at any width.
func TestPoolMapDeterministic(t *testing.T) {
	const n = 300
	for _, jobs := range []int{1, 8} {
		eng := exec.New(jobs, nil)
		out := make([]int, n)
		var calls atomic.Int64
		err := eng.MapTracked(context.Background(), n, "test", func(i int) error {
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
		err = eng.MapTracked(context.Background(), n, "test", func(i int) error {
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
	if ce.Index != 1 || ce.Err == nil {
		t.Errorf("CellError = (%d, %v), want index 1", ce.Index, ce.Err)
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
