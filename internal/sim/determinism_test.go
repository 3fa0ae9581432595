package sim_test

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"

	"r2c/internal/bench"
	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// TestTelemetryDoesNotPerturbRuns is the telemetry-off determinism gate: a
// fully instrumented run (registry + tracer + function profiler) must produce
// bit-identical results to a plain run — same modeled cycles, same executed
// instruction stream, same program output, and the same RNG-derived load-time
// state (guard pages, BTDP values). Telemetry observes the simulation; it
// must never participate in it.
func TestTelemetryDoesNotPerturbRuns(t *testing.T) {
	b, _ := workload.ByName("nginx")
	m := b.Build(8)
	for _, cfg := range []defense.Config{defense.Off(), defense.R2CFull()} {
		spans := &telemetry.SpanCollector{}
		obs := &telemetry.Observer{
			Registry:     telemetry.NewRegistry(),
			Tracer:       telemetry.NewChromeTracer(io.Discard),
			Spans:        spans,
			ProfileFuncs: true,
		}
		plainRes, plainProc, err := sim.Run(m, cfg, 7, vm.EPYCRome())
		if err != nil {
			t.Fatalf("%s plain: %v", cfg.Name, err)
		}
		// The observed run threads a live span tree through the same build,
		// load and exec stages Run uses, so the gate covers the span hooks too.
		root := obs.StartSpan("determinism", 1)
		img, err := sim.BuildImage(m, cfg, 7, root)
		if err != nil {
			t.Fatalf("%s observed build: %v", cfg.Name, err)
		}
		obsProc, err := sim.NewProcessFromImage(img, 7, obs)
		if err != nil {
			t.Fatalf("%s observed load: %v", cfg.Name, err)
		}
		obsRes, err := sim.ExecMachine(context.Background(), vm.New(obsProc, vm.EPYCRome()), obs, root, 0)
		root.End()
		if err != nil {
			t.Fatalf("%s observed: %v", cfg.Name, err)
		}

		if plainRes.Cycles != obsRes.Cycles {
			t.Errorf("%s: cycles diverge: plain %.0f, observed %.0f", cfg.Name, plainRes.Cycles, obsRes.Cycles)
		}
		if plainRes.Instructions != obsRes.Instructions {
			t.Errorf("%s: instruction counts diverge: %d vs %d", cfg.Name, plainRes.Instructions, obsRes.Instructions)
		}
		if !reflect.DeepEqual(plainRes.Output, obsRes.Output) {
			t.Errorf("%s: program output diverges", cfg.Name)
		}
		if plainRes.MaxRSSBytes != obsRes.MaxRSSBytes {
			t.Errorf("%s: maxrss diverges: %d vs %d", cfg.Name, plainRes.MaxRSSBytes, obsRes.MaxRSSBytes)
		}
		// RNG-derived load-time state: both builds consumed their seeded
		// streams identically, so guard-page placement and the published
		// BTDP values must match exactly.
		if !reflect.DeepEqual(plainProc.GuardPages, obsProc.GuardPages) {
			t.Errorf("%s: guard pages diverge", cfg.Name)
		}
		if !reflect.DeepEqual(plainProc.BTDPValues, obsProc.BTDPValues) {
			t.Errorf("%s: BTDP values diverge", cfg.Name)
		}

		// And the instrumentation must actually have observed the run: the
		// registry's instruction counter equals the result's, proving the
		// comparison exercised the live telemetry path, not a disabled one.
		snap := obs.Registry.Snapshot()
		if got := snap.Counters[telemetry.Key("vm.instructions")]; got != obsRes.Instructions {
			t.Errorf("%s: registry saw %d instructions, result has %d", cfg.Name, got, obsRes.Instructions)
		}
		recorded := map[string]int{}
		for _, d := range spans.Spans() {
			recorded[d.Name]++
		}
		for _, name := range []string{"sim.compile", "sim.link", "sim.exec"} {
			if recorded[name] != 1 {
				t.Errorf("%s: span %q recorded %d times, want 1", cfg.Name, name, recorded[name])
			}
		}
	}
}

// TestParallelEqualsSerial is the worker-pool determinism gate: the full
// Table 1 and Figure 6 pipelines — printed tables included — must be
// byte-identical between a serial engine (jobs=1) and a wide one (jobs=8).
// The pool merges results by submission index and the build cache serves
// immutable images, so scheduling must never be able to reach a reported
// number.
func TestParallelEqualsSerial(t *testing.T) {
	if raceEnabled {
		// This is a determinism gate, not a race gate, and the double full
		// pipeline exceeds the race detector's budget on small machines; the
		// engine's concurrency is raced in internal/exec and internal/bench.
		t.Skip("skipping double benchmark pipeline under the race detector")
	}
	run := func(jobs int) (string, []bench.Table1Row, []bench.Figure6Series) {
		var buf bytes.Buffer
		opt := bench.Options{Scale: 16, Runs: 1, Out: &buf, Eng: exec.New(jobs, nil)}
		t1, err := bench.Table1(opt)
		if err != nil {
			t.Fatalf("jobs=%d table1: %v", jobs, err)
		}
		f6, err := bench.Figure6(opt)
		if err != nil {
			t.Fatalf("jobs=%d figure6: %v", jobs, err)
		}
		return buf.String(), t1, f6
	}
	serialOut, serialT1, serialF6 := run(1)
	parallelOut, parallelT1, parallelF6 := run(8)

	if !reflect.DeepEqual(serialT1, parallelT1) {
		t.Errorf("Table 1 rows diverge between jobs=1 and jobs=8:\nserial:   %+v\nparallel: %+v", serialT1, parallelT1)
	}
	if !reflect.DeepEqual(serialF6, parallelF6) {
		t.Errorf("Figure 6 series diverge between jobs=1 and jobs=8:\nserial:   %+v\nparallel: %+v", serialF6, parallelF6)
	}
	if serialOut != parallelOut {
		t.Errorf("printed tables diverge between jobs=1 and jobs=8:\n--- serial ---\n%s--- parallel ---\n%s", serialOut, parallelOut)
	}
}
