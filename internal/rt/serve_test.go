package rt_test

import (
	"context"
	"runtime"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// serveFuel is the serving fleet's default per-request instruction fuel.
const serveFuel = 5_000_000

// serveOne is one request as a fleet slot serves it: fork the snapshot,
// re-arm the slot's machine on the fork, run it to halt, release the fork.
func serveOne(tb testing.TB, snap *rt.Snapshot, m *vm.Machine) {
	p := snap.Fork(nil)
	m.Reset(p)
	res, err := sim.ExecMachine(context.Background(), m, nil, nil, serveFuel)
	if err != nil || !res.Halted {
		tb.Fatalf("request did not halt: %v", err)
	}
	p.Release()
}

// BenchmarkServeRequest prices one steady-state served request of the
// nginx handler under full R2C: fork + Reset + run + Release.
func BenchmarkServeRequest(b *testing.B) {
	snap, err := rt.Load(nginxImage(b), 7, nil)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(snap.Fork(nil), vm.EPYCRome())
	serveOne(b, snap, m) // warm the pools and the machine's buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOne(b, snap, m)
	}
}

// TestServeRequestAllocs is the ceiling on a steady-state request's heap
// allocations. The path's own are the fork's few small structs; the rest of
// the ceiling absorbs a page-pool refill after a GC cycle empties it.
func TestServeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	snap, err := rt.Load(nginxImage(t), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(snap.Fork(nil), vm.EPYCRome())
	serveOne(t, snap, m)
	const ceiling = 12
	if n := testing.AllocsPerRun(200, func() { serveOne(t, snap, m) }); n > ceiling {
		t.Errorf("a served request allocates %.1f times, ceiling %d", n, ceiling)
	}
}

// TestBuildImageAllocs is the build path's ceiling, on BenchmarkBuildImage's
// build (r2c-full perlbench, fresh seed each time): lowering, linking and
// predecoding allocate each slice once at its final size, so append growth
// creeping back shows here as allocations and bytes per build. A build
// measured 1.26-1.30 MB; the byte ceiling adds 4%, which also holds a build
// whose lowering buffer missed the pool and was allocated afresh (~84 KB).
func TestBuildImageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	m := workload.Perlbench(8)
	seed := uint64(0)
	build := func() {
		seed++
		if _, err := sim.BuildImage(m, defense.R2CFull(), seed, nil); err != nil {
			t.Fatal(err)
		}
	}
	const runs, maxAllocs, maxBytes = 10, 2250, 1_350_000
	if n := testing.AllocsPerRun(runs, build); n > maxAllocs {
		t.Errorf("a build allocates %.0f times, ceiling %d", n, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > maxBytes {
		t.Errorf("a build allocates %d bytes, ceiling %d", b, maxBytes)
	}
}
