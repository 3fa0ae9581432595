package exec_test

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/telemetry"
	"r2c/internal/vm"
)

const pipelineGolden = "testdata/pipeline.golden"

// pipelineShape runs one serial RunCells batch (a built cell, a cache hit, a
// forced build failure and a forced panic) and two BuildImages batches (one
// hit plus one miss, then a config every build rejects) through one engine.
// It returns one line per span — name, parent's name and sorted attribute
// keys, lines sorted — followed by the sorted metric keys the runs left in
// the registry. Values are left out: they carry wall clock and lane numbers.
func pipelineShape(t *testing.T) string {
	t.Helper()
	col := &telemetry.SpanCollector{}
	reg := telemetry.NewRegistry()
	eng := exec.New(1, &telemetry.Observer{Registry: reg, Spans: col})
	eng.Faults = (&exec.FaultPlan{}).Set(2, 0, exec.FaultBuildFail).Set(3, 0, exec.FaultPanic)
	m := testModule(t)
	cell := exec.Cell{Module: m, Cfg: defense.R2CFull(), Seed: 100, Prof: vm.EPYCRome()}
	if _, err := eng.RunCells(context.Background(), []exec.Cell{cell, cell, cell, cell}); err == nil {
		t.Fatal("RunCells with two injected faults succeeded")
	}
	if _, err := eng.BuildImages(context.Background(), m, defense.R2CFull(), []uint64{100, 101}); err != nil {
		t.Fatal(err)
	}
	bad := defense.R2CFull()
	bad.Name, bad.VectorWidthBits = "bad-width", 3
	if _, err := eng.BuildImages(context.Background(), m, bad, []uint64{1}); err == nil {
		t.Fatal("BuildImages under an unsupported vector width succeeded")
	}

	spans := col.Spans()
	names := make(map[uint64]string, len(spans))
	for _, d := range spans {
		names[d.ID] = d.Name
	}
	var lines []string
	for _, d := range spans {
		keys := make([]string, 0, len(d.Attrs))
		for k := range d.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parent := "-"
		if d.Parent != 0 {
			parent = names[d.Parent]
		}
		lines = append(lines, fmt.Sprintf("span %s <- %s [%s]", d.Name, parent, strings.Join(keys, " ")))
	}
	sort.Strings(lines)

	snap := reg.Snapshot()
	var metrics []string
	for k := range snap.Counters {
		metrics = append(metrics, "counter "+k)
	}
	for k := range snap.Gauges {
		metrics = append(metrics, "gauge "+k)
	}
	for k := range snap.Histograms {
		metrics = append(metrics, "histogram "+k)
	}
	sort.Strings(metrics)
	return strings.Join(append(lines, metrics...), "\n") + "\n"
}

// TestPipelineShapeGolden pins the span tree and metric names of the
// engine's two batch drivers: exec.batch → cell → cache-lookup/build/load/
// sim.exec and exec.images → variant → cache-lookup/build, each build with
// its sim.compile and sim.link children, on success, cache hit and failure.
// A change meant to leave the engine's telemetry as it is must leave this
// file unchanged.
func TestPipelineShapeGolden(t *testing.T) {
	want, err := os.ReadFile(pipelineGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := pipelineShape(t); got != string(want) {
		t.Errorf("pipeline shape differs from %s; at this tree it is:\n%s", pipelineGolden, got)
	}
}
