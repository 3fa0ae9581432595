package exec_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
)

// spinModule builds a module whose entry loops forever — the runaway
// simulated program the fuel watchdog exists for.
func spinModule(t *testing.T) *tir.Module {
	t.Helper()
	mb := tir.NewModule("spin")
	fb := mb.NewFunc("main", 0)
	one := fb.Const(1)
	loop := fb.NewBlock()
	fb.SetBlock(0)
	fb.Br(loop)
	fb.SetBlock(loop)
	fb.Bin(tir.OpAdd, one, one)
	fb.Br(loop)
	mb.SetEntry("main")
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func cellsN(m *tir.Module, n int) []exec.Cell {
	cells := make([]exec.Cell, n)
	for i := range cells {
		cells[i] = exec.Cell{Module: m, Cfg: defense.R2CFull(), Seed: uint64(500 + i), Prof: vm.EPYCRome()}
	}
	return cells
}

// An infinite loop must trip the fuel limit and die with a typed
// CellTimeoutError, instead of hanging the sweep until the default
// instruction budget (minutes) runs out.
func TestWatchdogFuelLimitKillsInfiniteLoop(t *testing.T) {
	eng := exec.New(1, nil)
	eng.CellFuel = 500_000
	start := time.Now()
	results, err := eng.RunCells(context.Background(), cellsN(spinModule(t), 1))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("infinite loop completed successfully")
	}
	var te *exec.CellTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %v is not a CellTimeoutError", err)
	}
	if te.Fuel != 500_000 {
		t.Errorf("timeout error = fuel %d, want 500000", te.Fuel)
	}
	if !errors.Is(err, vm.ErrFuelExhausted) {
		t.Errorf("error %v does not wrap vm.ErrFuelExhausted", err)
	}
	if results[0] != nil {
		t.Error("killed cell left a result")
	}
	if elapsed > time.Minute {
		t.Errorf("fuel kill took %v — the watchdog did not bound the run", elapsed)
	}
}

// One panicking cell must degrade to a *PanicError in its slot while every
// other cell completes — with surviving results byte-identical to a clean
// serial run, at both widths.
func TestPanicIsolationDeterministicAcrossWidths(t *testing.T) {
	const n, bad = 6, 2
	m := testModule(t)

	clean := exec.New(1, nil)
	want, err := clean.RunCells(context.Background(), cellsN(m, n))
	if err != nil {
		t.Fatal(err)
	}

	for _, jobs := range []int{1, 8} {
		eng := exec.New(jobs, nil)
		eng.Faults = (&exec.FaultPlan{}).SetAll(bad, exec.FaultPanic)
		results, err := eng.RunCells(context.Background(), cellsN(m, n))
		if err == nil {
			t.Fatalf("jobs=%d: injected panic did not surface", jobs)
		}
		be, ok := exec.AsBatchError(err)
		if !ok {
			t.Fatalf("jobs=%d: error %v is not a BatchError", jobs, err)
		}
		if got := failedIndices(be); !reflect.DeepEqual(got, []int{bad}) {
			t.Fatalf("jobs=%d: failed indices %v, want [%d]", jobs, got, bad)
		}
		var pe *exec.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("jobs=%d: error %v is not a PanicError", jobs, err)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("jobs=%d: panic error carries no stack", jobs)
		}
		if !strings.Contains(err.Error(), "worker panic") {
			t.Errorf("jobs=%d: error %q does not mention the panic", jobs, err)
		}
		for i := 0; i < n; i++ {
			if i == bad {
				if results[i] != nil {
					t.Errorf("jobs=%d: panicked cell %d left a result", jobs, i)
				}
				continue
			}
			if !reflect.DeepEqual(results[i], want[i]) {
				t.Errorf("jobs=%d: surviving cell %d diverges from the clean run", jobs, i)
			}
		}
	}
}

// A fault injected only at attempt 0 must be healed by one retry; a fault
// injected at every attempt must exhaust the retry budget and report the
// last attempt's failure.
func TestRetryHealsTransientFault(t *testing.T) {
	m := testModule(t)

	eng := exec.New(1, nil)
	eng.Retries = 1
	eng.Faults = (&exec.FaultPlan{}).Set(0, 0, exec.FaultExecFail)
	results, err := eng.RunCells(context.Background(), cellsN(m, 1))
	if err != nil {
		t.Fatalf("retry did not heal the transient fault: %v", err)
	}
	if results[0] == nil {
		t.Fatal("healed cell left no result")
	}

	eng2 := exec.New(1, nil)
	eng2.Retries = 2
	eng2.Faults = (&exec.FaultPlan{}).SetAll(0, exec.FaultExecFail)
	_, err = eng2.RunCells(context.Background(), cellsN(m, 1))
	if err == nil {
		t.Fatal("persistent fault healed unexpectedly")
	}
	if !strings.Contains(err.Error(), "attempt 2") {
		t.Errorf("error %q does not reflect the final attempt", err)
	}
}

// Retry seeds must derive from the content key alone — deterministic across
// processes and distinct per attempt.
func TestRetrySeedDeterministic(t *testing.T) {
	k := exec.Key{Module: "abc", Config: "cfg", Seed: 7}
	if exec.RetrySeed(k, 1) != exec.RetrySeed(k, 1) {
		t.Error("RetrySeed is not deterministic")
	}
	if exec.RetrySeed(k, 1) == exec.RetrySeed(k, 2) {
		t.Error("RetrySeed collides across attempts")
	}
	k2 := k
	k2.Seed = 8
	if exec.RetrySeed(k, 1) == exec.RetrySeed(k2, 1) {
		t.Error("RetrySeed collides across cell seeds")
	}
}

// A journaled run must replay — not re-execute — every completed cell in a
// resumed engine, with byte-identical results, and tolerate the torn final
// line a kill mid-append leaves behind.
func TestJournalResumeReplaysCompletedCells(t *testing.T) {
	const n = 3
	m := testModule(t)
	path := filepath.Join(t.TempDir(), "run.journal")

	j1, err := exec.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	eng1 := exec.New(2, nil)
	eng1.Journal = j1
	want, err := eng1.RunCells(context.Background(), cellsN(m, n))
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-append: a torn trailing line must not poison the
	// intact entries before it.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":{"module":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := exec.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != n {
		t.Fatalf("reloaded journal has %d entries, want %d", j2.Len(), n)
	}
	eng2 := exec.New(2, nil)
	eng2.Journal = j2
	got, err := eng2.RunCells(context.Background(), cellsN(m, n))
	if err != nil {
		t.Fatal(err)
	}
	if j2.Hits() != n {
		t.Errorf("resume executed cells it should have replayed: %d/%d journal hits", j2.Hits(), n)
	}
	if hits, misses, _ := eng2.Cache.Stats(); hits+misses != 0 {
		t.Errorf("resume touched the build cache (%d hits / %d misses)", hits, misses)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("replayed results diverge from the original run")
	}
}

// A journal written under an older KeySchema must not be replayed: its
// results came from images predecoded under another layout, so the cell's
// current-schema key misses and the cell re-executes.
func TestJournalSkipsOlderSchema(t *testing.T) {
	m := testModule(t)
	cells := cellsN(m, 1)
	c := cells[0]
	path := filepath.Join(t.TempDir(), "run.journal")

	stale := exec.NewCache(nil).Key(c.Module, c.Cfg, c.Seed)
	stale.Schema = exec.KeySchema - 1
	j1, err := exec.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Record(stale, c.Prof.Name, &vm.Result{Instructions: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := exec.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("reloaded journal has %d entries, want the 1 stale one", j2.Len())
	}
	eng := exec.New(1, nil)
	eng.Journal = j2
	got, err := eng.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Hits() != 0 {
		t.Errorf("older-schema entry replayed: %d journal hits", j2.Hits())
	}
	if _, misses, _ := eng.Cache.Stats(); misses != 1 {
		t.Errorf("cell not re-executed: %d build-cache misses, want 1", misses)
	}
	if got[0].Instructions == 1 {
		t.Error("result is the stale journal entry's")
	}
	if j2.Len() != 2 {
		t.Errorf("journal has %d entries, want the stale one plus the current-schema one", j2.Len())
	}
}

// Appends after a torn final line must not glue onto it: the next re-run
// would fail to decode the merged line and drop it and everything after.
func TestJournalAppendAfterTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	record := func(j *exec.Journal, seeds ...uint64) {
		t.Helper()
		for _, s := range seeds {
			if err := j.Record(exec.Key{Module: "m", Config: "c", Seed: s}, "p", &vm.Result{Instructions: s}); err != nil {
				t.Fatal(err)
			}
		}
	}
	j1, err := exec.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	record(j1, 1, 2)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":{"module":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := exec.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	record(j2, 3, 4)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	j3, err := exec.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 4 {
		t.Fatalf("reopened journal has %d entries, want 4", j3.Len())
	}
	for s := uint64(1); s <= 4; s++ {
		res, ok := j3.Lookup(exec.Key{Module: "m", Config: "c", Seed: s}, "p")
		if !ok || res.Instructions != s {
			t.Errorf("entry %d: got %+v, %v", s, res, ok)
		}
	}
}

// The serial (width 1) path must report the same fan-out gauges the
// parallel path does.
func TestSerialPoolSetsGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng := exec.New(1, &telemetry.Observer{Registry: reg})
	if err := eng.MapTracked(context.Background(), 3, "test", func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if v := reg.Gauge("exec.pool.workers").Value(); v != 1 {
		t.Errorf("exec.pool.workers = %v, want 1", v)
	}
	if v := reg.Gauge("exec.pool.queue_depth").Value(); v != 0 {
		t.Errorf("exec.pool.queue_depth = %v, want 0 after drain", v)
	}
}

// A cancelled context stops dispatch: no item runs, every slot reports the
// cancellation.
func TestPoolHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		eng := exec.New(jobs, nil)
		ran := false
		err := eng.MapTracked(ctx, 5, "test", func(i int) error { ran = true; return nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
		if ran {
			t.Errorf("jobs=%d: item ran under a cancelled context", jobs)
		}
	}
}

// A batch with several failures must report all of them, index-ordered, and
// keep the legacy contract: errors.As finds the lowest-index CellError.
func TestBatchErrorAggregatesFailures(t *testing.T) {
	m := testModule(t)
	eng := exec.New(2, nil)
	eng.Faults = (&exec.FaultPlan{}).SetAll(1, exec.FaultBuildFail).SetAll(3, exec.FaultExecFail)
	results, err := eng.RunCells(context.Background(), cellsN(m, 4))
	be, ok := exec.AsBatchError(err)
	if !ok {
		t.Fatalf("error %v is not a BatchError", err)
	}
	if got := failedIndices(be); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("failed indices %v, want [1 3]", got)
	}
	var ce *exec.CellError
	if !errors.As(err, &ce) || ce.Index != 1 {
		t.Errorf("errors.As CellError = %+v, want index 1", ce)
	}
	if results[0] == nil || results[2] == nil {
		t.Error("surviving cells left no results")
	}
	if !strings.Contains(be.Summary(), "2/4 cells failed") {
		t.Errorf("summary %q lacks the failure count", be.Summary())
	}
}

// failedIndices lists the failed cells' indices in the order the batch
// error reports them, which is ascending.
func failedIndices(be *exec.BatchError) []int {
	idx := make([]int, len(be.Failures))
	for i, f := range be.Failures {
		idx[i] = f.Index
	}
	return idx
}
