package vm_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/vm"
)

func profiledRun(t *testing.T) *vm.FuncProfiler {
	t.Helper()
	img, err := sim.BuildImage(smallModule(), defense.Off(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := sim.NewProcessFromImage(img, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mach := vm.New(proc, vm.EPYCRome())
	mach.EnableProfiler()
	if _, err := mach.Run(sim.DefaultBudget); err != nil {
		t.Fatal(err)
	}
	p := mach.Profiler()
	if p == nil {
		t.Fatal("profiler enabled but nil after run")
	}
	return p
}

// TestProfilerFoldedStacks checks the call-path attribution behind
// -profile-format folded: paths are semicolon-joined from the entry down,
// tail calls extend the caller's path, and the folded mass equals the flat
// profile's self-cycle mass exactly (both fold the same deltas).
func TestProfilerFoldedStacks(t *testing.T) {
	p := profiledRun(t)
	stacks := p.FoldedStacks()
	if len(stacks) == 0 {
		t.Fatal("no folded stacks recorded")
	}
	byPath := map[string]float64{}
	var foldedTotal float64
	for _, fs := range stacks {
		if fs.Cycles <= 0 {
			t.Errorf("path %q has non-positive cycles %v", fs.Path, fs.Cycles)
		}
		byPath[fs.Path] = fs.Cycles
		foldedTotal += fs.Cycles
	}
	// main calls sq directly, and calls tail which tail-calls into sq: the
	// divergence shows up as a third frame on tail's path.
	for _, want := range []string{"_start;main", "_start;main;sq", "_start;main;tail;sq"} {
		if _, ok := byPath[want]; !ok {
			t.Errorf("missing folded path %q; have %v", want, keys(byPath))
		}
	}
	var flatTotal float64
	for _, st := range p.Snapshot() {
		flatTotal += st.SelfCycles
	}
	// Both totals fold the same per-transfer deltas, just grouped
	// differently, so they agree up to float summation order.
	if diff := math.Abs(foldedTotal - flatTotal); diff > 1e-6*flatTotal {
		t.Errorf("folded mass %v != flat self-cycle mass %v", foldedTotal, flatTotal)
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestProfilerWriteFolded pins the folded format Registry.WriteFolded
// renders from a published profile (what r2cbench -profile-format folded
// prints): one "path cycles" line per call path, sorted by path, cycles
// truncated to integers as Publish counts them — what flamegraph.pl and
// speedscope parse.
func TestProfilerWriteFolded(t *testing.T) {
	p := profiledRun(t)
	reg := telemetry.NewRegistry()
	p.Publish(reg)
	var got bytes.Buffer
	reg.WriteFolded(&got)
	var want strings.Builder
	for _, fs := range p.FoldedStacks() {
		fmt.Fprintf(&want, "%s %d\n", fs.Path, uint64(fs.Cycles))
	}
	if got.String() != want.String() {
		t.Errorf("WriteFolded:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// TestProfilerPublishStacks checks Publish lands per-path counters in the
// registry (what Registry.WriteFolded aggregates across runs).
func TestProfilerPublishStacks(t *testing.T) {
	p := profiledRun(t)
	reg := telemetry.NewRegistry()
	p.Publish(reg)
	snap := reg.Snapshot()
	found := 0
	for k := range snap.Counters {
		if strings.HasPrefix(k, "vm.stack.self_cycles{") {
			found++
		}
	}
	if want := len(p.FoldedStacks()); found != want {
		t.Errorf("%d vm.stack.self_cycles series published, want %d", found, want)
	}
}
