package vm_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"r2c/internal/attack"
	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// These tests are the interpreter's equivalence gate: the predecoded,
// superinstruction-fusing, segment-batched dispatch loop behind Machine.Run
// must be observationally indistinguishable from the reference
// per-instruction interpreter (vm.RunReference) — identical Results
// (counters, cycles, faults, traps, output), identical error values,
// identical pause/resume points, identical flight-recorder streams and
// identical exported metrics. Each comparison builds two identical machines
// and runs one leg on each engine.

// leg is what one engine observably left behind after a run.
type leg struct {
	res *vm.Result
	err string
	pc  uint64
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runFast runs m the way production cells do: vm.RunCtx in its default
// chunks, so every chunk edge is a budget cut inside some block.
func runFast(m *vm.Machine) leg {
	res, err := m.RunCtx(context.Background(), sim.DefaultBudget, 0)
	return leg{res, errString(err), m.CPU.PC}
}

// runRef runs m to completion on the reference interpreter in one call.
func runRef(m *vm.Machine) leg {
	res, err := vm.RunReference(m, sim.DefaultBudget)
	return leg{res, errString(err), m.CPU.PC}
}

func requireSame(t *testing.T, what string, fast, ref leg) {
	t.Helper()
	if fast.err != ref.err {
		t.Fatalf("%s: errors diverge: fast %q, reference %q", what, fast.err, ref.err)
	}
	if fast.pc != ref.pc {
		t.Fatalf("%s: stop PC diverges: fast %#x, reference %#x", what, fast.pc, ref.pc)
	}
	if !reflect.DeepEqual(fast.res, ref.res) {
		t.Fatalf("%s: results diverge\nfast:      %+v\nreference: %+v", what, fast.res, ref.res)
	}
}

func buildImage(t testing.TB, m *tir.Module, cfg defense.Config, seed uint64) *image.Image {
	t.Helper()
	img, err := sim.BuildImage(m, cfg, seed)
	if err != nil {
		t.Fatalf("%s seed %d: build: %v", cfg.Name, seed, err)
	}
	return img
}

// newMachine loads a fresh process from img — bit-identical to a
// sim.BuildObserved of the same (module, config, seed) — on prof.
func newMachine(t testing.TB, img *image.Image, seed uint64, prof *vm.Profile, obs *telemetry.Observer) *vm.Machine {
	t.Helper()
	proc, err := sim.NewProcessFromImage(img, seed, obs)
	if err != nil {
		t.Fatalf("seed %d: load: %v", seed, err)
	}
	return vm.New(proc, prof)
}

// TestFastPathMatchesReferenceOnWorkloads runs all twelve SPEC workloads plus
// both webservers under the baseline and full-R2C configs on each engine
// and requires the entire Result struct to match field for field.
func TestFastPathMatchesReferenceOnWorkloads(t *testing.T) {
	if raceEnabled {
		t.Skip("skipping the workload sweep under -race")
	}
	scale := 16
	if testing.Short() {
		scale = 64
	}
	benches := workload.SPEC()
	for _, name := range []string{"nginx", "apache"} {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		benches = append(benches, b)
	}
	for _, b := range benches {
		m := b.Build(scale)
		for _, cfg := range []defense.Config{defense.Off(), defense.R2CFull()} {
			img := buildImage(t, m, cfg, 7)
			fast := runFast(newMachine(t, img, 7, vm.EPYCRome(), nil))
			ref := runRef(newMachine(t, img, 7, vm.EPYCRome(), nil))
			requireSame(t, b.Name+"/"+cfg.Name, fast, ref)
		}
	}
}

// TestFastPathMatchesReferenceOnRandomPrograms fuzzes the equivalence with
// generated programs (some of which fault or run into traps by
// construction): identical Results — including the Fault and Trap fields —
// and identical error strings under both engines.
func TestFastPathMatchesReferenceOnRandomPrograms(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		cfg := fuzzConfigs[int(seed)%len(fuzzConfigs)]
		img := buildImage(t, workload.Random(seed), cfg, seed)
		fast := runFast(newMachine(t, img, seed, vm.EPYCRome(), nil))
		ref := runRef(newMachine(t, img, seed, vm.EPYCRome(), nil))
		requireSame(t, cfg.Name, fast, ref)
	}
}

// TestFastPathResumeAndKnobParity drives two identically-built machines in
// small chunks with the RSS-sampling and i-cache-flush knobs enabled. Every
// pause must land on the same PC with the same Result: the fast path cuts
// its segments at exactly the boundaries the reference observes.
func TestFastPathResumeAndKnobParity(t *testing.T) {
	scale := 16
	if testing.Short() || raceEnabled {
		scale = 256
	}
	b, _ := workload.ByName("nginx")
	m := b.Build(scale)
	knobs := []struct{ sample, flush, chunk uint64 }{
		{5000, 9001, 7777}, // deliberately misaligned with blocks and each other
		{3, 7, 509},        // cuts inside nearly every block and fused pair
	}
	for _, cfg := range []defense.Config{defense.Off(), defense.R2CFull()} {
		img := buildImage(t, m, cfg, 5)
		for _, k := range knobs {
			mk := func() *vm.Machine {
				mach := newMachine(t, img, 5, vm.EPYCRome(), nil)
				mach.SampleEvery = k.sample
				mach.FlushICacheEvery = k.flush
				return mach
			}
			fm, rm := mk(), mk()
			for step := 0; ; step++ {
				fr, fe := fm.Run(k.chunk)
				rr, re := vm.RunReference(rm, k.chunk)
				what := fmt.Sprintf("%s %+v step %d", cfg.Name, k, step)
				requireSame(t, what, leg{fr, errString(fe), fm.CPU.PC}, leg{rr, errString(re), rm.CPU.PC})
				if re != vm.ErrInstructionBudget {
					if !rr.Halted {
						t.Fatalf("%s %+v: run ended without halting: %v", cfg.Name, k, re)
					}
					break
				}
				if step > 1_000_000 {
					t.Fatalf("%s %+v: did not halt", cfg.Name, k)
				}
			}
		}
	}
}

// scenarioResume builds the attack victim paused inside its helper (so the
// resume enters mid-block), plants a shadow-stack violation by overwriting
// the helper's return address, and resumes it on the given engine.
func scenarioResume(t *testing.T, run func(*vm.Machine) leg, obs *telemetry.Observer) (leg, *attack.Scenario) {
	t.Helper()
	s, err := attack.NewScenarioObserved(defense.CFIShadowStack(), 3, obs)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	cands, err := s.RACandidates()
	if err != nil || len(cands) != 1 {
		t.Fatalf("RA candidates: %d, %v", len(cands), err)
	}
	other := s.Proc.Img.Funcs[attack.SymLogHandler].Start
	if err := s.Write(cands[0].Addr, other); err != nil {
		t.Fatalf("write: %v", err)
	}
	return run(s.Mach), s
}

// TestFastPathTrapParity detonates the same booby trap under both engines.
// The stop state and the recorded trap events — kind, PC, leaked address —
// must match exactly.
func TestFastPathTrapParity(t *testing.T) {
	fast, fs := scenarioResume(t, runFast, nil)
	ref, rs := scenarioResume(t, runRef, nil)
	if fast.res.Trap == nil {
		t.Fatalf("corrupted return did not trap: %+v", fast.res)
	}
	requireSame(t, "trap resume", fast, ref)
	if !reflect.DeepEqual(fs.Proc.Traps(), rs.Proc.Traps()) {
		t.Fatalf("trap events diverge\nfast:      %+v\nreference: %+v", fs.Proc.Traps(), rs.Proc.Traps())
	}
}

// TestFastPathMetricsJSONParity compares the -metrics-out artifact byte for
// byte: a fully instrumented run (registry + function profiler) must export
// the identical JSON under either engine.
func TestFastPathMetricsJSONParity(t *testing.T) {
	b, _ := workload.ByName("xz")
	img := buildImage(t, b.Build(16), defense.R2CFull(), 11)
	run := func(engine func(*vm.Machine) leg) (leg, []byte) {
		obs := &telemetry.Observer{Registry: telemetry.NewRegistry(), ProfileFuncs: true}
		mach := newMachine(t, img, 11, vm.EPYCRome(), obs)
		mach.EnableProfiler()
		l := engine(mach)
		mach.PublishMetrics(obs.Registry)
		mach.Profiler().Publish(obs.Registry)
		var buf bytes.Buffer
		if err := obs.Registry.WriteJSON(&buf); err != nil {
			t.Fatalf("metrics JSON: %v", err)
		}
		return l, buf.Bytes()
	}
	fast, fj := run(runFast)
	ref, rj := run(runRef)
	requireSame(t, "instrumented xz", fast, ref)
	if !bytes.Equal(fj, rj) {
		t.Fatalf("metrics JSON diverges\nfast:      %s\nreference: %s", fj, rj)
	}
}

// TestFastPathFigure6Cells runs Figure 6's exact cells — every SPEC
// workload, baseline (seed 17) and full R2C (seed 31), on all four modeled
// machines at scale 16 — on both engines and requires identical Results.
// Table aggregation is a pure function of these Results, and
// TestParallelEqualsSerial covers the jobs width, so no reported Figure 6
// number can depend on the engine.
func TestFastPathFigure6Cells(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("skipping the Figure 6 cell plan under -race/-short")
	}
	for _, b := range workload.SPEC() {
		m := b.Build(16)
		for _, c := range []struct {
			cfg  defense.Config
			seed uint64
		}{{defense.Off(), 17}, {defense.R2CFull(), 31}} {
			img := buildImage(t, m, c.cfg, c.seed)
			for _, prof := range vm.AllMachines() {
				fast := runFast(newMachine(t, img, c.seed, prof, nil))
				ref := runRef(newMachine(t, img, c.seed, prof, nil))
				requireSame(t, b.Name+"/"+c.cfg.Name+"/"+prof.Name, fast, ref)
			}
		}
	}
}

// TestFastPathFlightRecorderParity requires the control-flow flight recorder
// to capture the identical event stream under both engines — same kinds,
// PCs, targets, and retired-instruction stamps — on a benign workload and
// on a run that detonates a booby trap. The fast path charges whole
// segments up front, so any drift in its per-event instruction accounting
// shows up here.
func TestFastPathFlightRecorderParity(t *testing.T) {
	b, _ := workload.ByName("nginx")
	m := b.Build(16)
	for _, cfg := range []defense.Config{defense.Off(), defense.R2CFull()} {
		img := buildImage(t, m, cfg, 7)
		run := func(engine func(*vm.Machine) leg) (leg, uint64, []telemetry.FlightEvent) {
			obs := &telemetry.Observer{Registry: telemetry.NewRegistry(), FlightCap: 512}
			mach := newMachine(t, img, 7, vm.EPYCRome(), obs)
			if mach.Proc.Flight == nil {
				t.Fatalf("%s: no flight recorder attached", cfg.Name)
			}
			l := engine(mach)
			return l, mach.Proc.Flight.Total(), mach.Proc.Flight.Events()
		}
		fast, ft, fe := run(runFast)
		ref, rt, re := run(runRef)
		requireSame(t, cfg.Name, fast, ref)
		if rt == 0 {
			t.Fatalf("%s: flight recorder captured nothing", cfg.Name)
		}
		if ft != rt {
			t.Fatalf("%s: flight totals diverge: fast %d, reference %d", cfg.Name, ft, rt)
		}
		if !reflect.DeepEqual(fe, re) {
			for i := range re {
				if i < len(fe) && fe[i] != re[i] {
					t.Logf("%s: first divergence at %d: fast %+v, reference %+v", cfg.Name, i, fe[i], re[i])
					break
				}
			}
			t.Fatalf("%s: flight events diverge (fast %d, reference %d events)", cfg.Name, len(fe), len(re))
		}
	}

	// Trap leg: the attack scenario's corrupted resume must leave identical
	// flight tails, including the probe and trap events.
	trapRun := func(engine func(*vm.Machine) leg) []telemetry.FlightEvent {
		obs := &telemetry.Observer{Registry: telemetry.NewRegistry(), FlightCap: 256}
		l, s := scenarioResume(t, engine, obs)
		if l.res.Trap == nil {
			t.Fatalf("corrupted return did not trap: %+v", l.res)
		}
		return s.Proc.Flight.Events()
	}
	fe, re := trapRun(runFast), trapRun(runRef)
	if len(re) == 0 {
		t.Fatal("trap run captured no flight events")
	}
	if !reflect.DeepEqual(fe, re) {
		t.Fatalf("trap-run flight events diverge\nfast:      %+v\nreference: %+v", fe, re)
	}
}
