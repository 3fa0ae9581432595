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
// CellTimeoutError well inside the wall-clock deadline, instead of hanging
// the sweep until the instruction budget (minutes) runs out.
func TestWatchdogFuelLimitKillsInfiniteLoop(t *testing.T) {
	eng := exec.New(1, nil)
	eng.CellFuel = 500_000
	eng.CellTimeout = 2 * time.Minute // backstop; fuel must fire first
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
	if te.Fuel != 500_000 || te.Timeout != 0 {
		t.Errorf("timeout error = fuel %d / deadline %v, want the fuel kill", te.Fuel, te.Timeout)
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

// A stalled cell (a genuine hang, not a busy loop) must die on the
// wall-clock deadline.
func TestWatchdogWallClockKillsStall(t *testing.T) {
	eng := exec.New(1, nil)
	eng.CellTimeout = 50 * time.Millisecond
	eng.Faults = (&exec.FaultPlan{}).SetAll(0, exec.FaultStall)
	start := time.Now()
	_, err := eng.RunCells(context.Background(), cellsN(testModule(t), 1))
	if err == nil {
		t.Fatal("stalled cell completed successfully")
	}
	var te *exec.CellTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %v is not a CellTimeoutError", err)
	}
	if te.Timeout != 50*time.Millisecond {
		t.Errorf("deadline = %v, want 50ms", te.Timeout)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stall kill took %v", elapsed)
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
		if got := be.FailedIndices(); !reflect.DeepEqual(got, []int{bad}) {
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

// Appends after a torn final line must not glue onto it: the next -resume
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

// The serial (width 1) path must report the same pool gauges the parallel
// path does.
func TestSerialPoolSetsGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := exec.NewPool(1, &telemetry.Observer{Registry: reg})
	if err := p.Map(context.Background(), 3, func(i int) error { return nil }); err != nil {
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
		p := exec.NewPool(jobs, nil)
		ran := false
		err := p.Map(ctx, 5, func(i int) error { ran = true; return nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
		if ran {
			t.Errorf("jobs=%d: item ran under a cancelled context", jobs)
		}
	}
}

func TestParseFaultPlan(t *testing.T) {
	p, err := exec.ParseFaultPlan("3:panic, 7@0:exec-fail,1@2:stall,*@4:build-fail")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cell, attempt int
		want          exec.FaultKind
	}{
		{3, 0, exec.FaultPanic},
		{3, 5, exec.FaultPanic}, // no @ATTEMPT → every attempt
		{7, 0, exec.FaultExecFail},
		{7, 1, exec.FaultNone},
		{1, 2, exec.FaultStall},
		{1, 0, exec.FaultNone},
		{0, 0, exec.FaultNone},
		{9, 4, exec.FaultBuildFail}, // * covers every cell
		{3, 4, exec.FaultPanic},     // (cell, any) beats (any, attempt)
		{9, 3, exec.FaultNone},
	} {
		if got := p.At(tc.cell, tc.attempt); got != tc.want {
			t.Errorf("At(%d, %d) = %v, want %v", tc.cell, tc.attempt, got, tc.want)
		}
	}
	if p.Len() != 4 {
		t.Errorf("Len = %d, want 4", p.Len())
	}
	// (any, any) is the last resort behind an exact entry.
	wild, err := exec.ParseFaultPlan("*:exec-fail, 2@1:stall")
	if err != nil {
		t.Fatal(err)
	}
	if got := wild.At(2, 1); got != exec.FaultStall {
		t.Errorf("wildcard plan At(2, 1) = %v, want stall", got)
	}
	if got := wild.At(5, 0); got != exec.FaultExecFail {
		t.Errorf("wildcard plan At(5, 0) = %v, want exec-fail", got)
	}

	var nilPlan *exec.FaultPlan
	if nilPlan.At(0, 0) != exec.FaultNone {
		t.Error("nil plan injected a fault")
	}
	if p, err := exec.ParseFaultPlan(""); p != nil || err != nil {
		t.Errorf("empty spec = (%v, %v), want (nil, nil)", p, err)
	}
	// There is no slow kind: the engine injects failures, not slowdowns.
	for _, bad := range []string{"x:panic", "3:bogus", "3", "-1:panic", "3@x:panic", "3@-2:panic", "*:", "*@x:panic", "3:slow", "*:slow=50ms", "3:build-fail=50ms"} {
		if _, err := exec.ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q parsed successfully", bad)
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
	if got := be.FailedIndices(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("failed indices %v, want [1 3]", got)
	}
	if i, _ := exec.SplitError(err); i != 1 {
		t.Errorf("SplitError index = %d, want the lowest failing index 1", i)
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
