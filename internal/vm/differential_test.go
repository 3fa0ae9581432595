package vm_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"r2c/internal/attack"
	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/image"
	"r2c/internal/isa"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// These tests are the interpreter's equivalence gate: the predecoded,
// segment-batched dispatch loop behind Machine.Run
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
	res, err := m.RunCtx(context.Background(), sim.DefaultBudget)
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
	img, err := sim.BuildImage(m, cfg, seed, nil)
	if err != nil {
		t.Fatalf("%s seed %d: build: %v", cfg.Name, seed, err)
	}
	return img
}

// newMachine loads a fresh process from img — bit-identical to a
// sim.Build of the same (module, config, seed) — on prof.
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

// aluKernel links a program that computes a <op> b once and outputs it.
// Lowering emits the immediate form only for stack adjustments, so the
// kernel's one register-register ALU instruction is rewritten to op, or to
// the immediate form with b as its immediate, before the link.
func aluKernel(t *testing.T, op isa.AluOp, imm bool, a, b uint64) *image.Image {
	t.Helper()
	mb := tir.NewModule("alu")
	main := mb.NewFunc("main", 0)
	main.Output(main.Bin(tir.OpAdd, main.Const(a), main.Const(b)))
	main.RetVoid()
	mb.SetEntry("main")
	prog, err := codegen.Compile(mb.MustBuild(), defense.Off(), 1)
	if err != nil {
		t.Fatal(err)
	}
	n, fn := 0, prog.Func("main")
	for i := range fn.Instrs {
		if in := &fn.Instrs[i]; in.Kind == isa.KAlu {
			in.Alu = op
			if imm {
				in.Kind, in.Imm = isa.KAluImm, b
			}
			n++
		}
	}
	if n != 1 {
		t.Fatalf("kernel lowered to %d ALU instructions, want 1", n)
	}
	img, err := image.Link(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestFastPathALUParity runs every ALU suboperation, and one past the last,
// in both the register-register and the register-immediate form under both
// engines, on operands that divide and take the remainder by zero, shift by
// 64 and more, and overflow a multiplication. workload.Random emits no div
// or rem, so the generated-program differentials never reach them. The
// engines must agree on the Result, the PC and the error, and the output
// must be the wrapped 64-bit value with shift counts taken mod 64.
func TestFastPathALUParity(t *testing.T) {
	pairs := [][2]uint64{
		{1000, 7},
		{5, 0}, // division and remainder by zero
		{^uint64(0), ^uint64(0)},
		{1<<63 | 3, 6}, // mul overflows
		{0xdead_beef_0bad_f00d, 63},
		{0xdead_beef_0bad_f00d, 64}, // shift counts of 64 and above
		{0xdead_beef_0bad_f00d, 65},
		{0xdead_beef_0bad_f00d, 1 << 40},
	}
	want := func(op isa.AluOp, a, b uint64) (uint64, string) {
		switch op {
		case isa.AluAdd:
			return a + b, ""
		case isa.AluSub:
			return a - b, ""
		case isa.AluMul:
			return a * b, ""
		case isa.AluDiv, isa.AluRem:
			if b == 0 {
				return 0, "division by zero"
			}
			if op == isa.AluDiv {
				return a / b, ""
			}
			return a % b, ""
		case isa.AluAnd:
			return a & b, ""
		case isa.AluOr:
			return a | b, ""
		case isa.AluXor:
			return a ^ b, ""
		case isa.AluShl:
			return a << (b % 64), ""
		case isa.AluShr:
			return a >> (b % 64), ""
		}
		return 0, "unknown alu op"
	}
	for op := isa.AluAdd; op <= isa.AluShr+1; op++ {
		for _, imm := range []bool{false, true} {
			for _, p := range pairs {
				what := fmt.Sprintf("%v imm=%v %#x, %#x", op, imm, p[0], p[1])
				img := aluKernel(t, op, imm, p[0], p[1])
				fast := runFast(newMachine(t, img, 1, vm.EPYCRome(), nil))
				ref := runRef(newMachine(t, img, 1, vm.EPYCRome(), nil))
				requireSame(t, what, fast, ref)
				v, errText := want(op, p[0], p[1])
				if errText != "" {
					if !strings.Contains(fast.err, errText) {
						t.Fatalf("%s: error %q, want %q", what, fast.err, errText)
					}
					continue
				}
				if fast.err != "" || !fast.res.Halted || len(fast.res.Output) != 1 || fast.res.Output[0] != v {
					t.Fatalf("%s: output %v (err %q), want %#x", what, fast.res.Output, fast.err, v)
				}
			}
		}
	}
}

// operandKernel links main, f, h and g, in that text order, with their
// compiled bodies replaced by hand-written code: main runs base-relative
// loads, stores, a vector load and store and a lea whose displacements do
// not fit 32 bits, two sets, calls f, outputs 11 and jumps to an unmapped
// address. f is pad nops and then a call to g, its last instruction; g
// outputs 7 and returns to f's end address. With 11 nops f is 16 bytes,
// so its end is h's entry and h outputs 9 and returns to main; with 0 the
// return lands in alignment padding.
func operandKernel(t *testing.T, pad int) *image.Image {
	t.Helper()
	mb := tir.NewModule("operands")
	for _, name := range []string{"main", "f", "h", "g"} {
		mb.NewFunc(name, 0).RetVoid()
	}
	mb.SetEntry("main")
	prog, err := codegen.Compile(mb.MustBuild(), defense.Off(), 1)
	if err != nil {
		t.Fatal(err)
	}
	call := func(name string) isa.Instr {
		return isa.Instr{Kind: isa.KCall, Sym: prog.Intern(name), CallSiteID: -1}
	}
	output := func(in ...isa.Instr) []isa.Instr { return append(in, call(codegen.StubOutput)) }
	const wide = 1 << 40
	var main []isa.Instr
	for _, seq := range [][]isa.Instr{
		{
			{Kind: isa.KLea, Dst: isa.RBX, Base: isa.RSP, Disp: -256},
			{Kind: isa.KMovImm, Dst: isa.RCX, Imm: wide},
			{Kind: isa.KAlu, Alu: isa.AluSub, Dst: isa.RBX, Src: isa.RCX},
			{Kind: isa.KMovImm, Dst: isa.RAX, Imm: 0x1122334455667788},
			{Kind: isa.KStore, Base: isa.RBX, Disp: wide, Src: isa.RAX},
		},
		output(isa.Instr{Kind: isa.KLoad, Dst: isa.RDI, Base: isa.RBX, Disp: wide}),
		{
			{Kind: isa.KVLoad, VDst: 1, Base: isa.RBX, Disp: wide, Imm: 32},
			{Kind: isa.KVStore, VSrc: 1, Base: isa.RBX, Disp: wide + 64, Imm: 32},
		},
		output(isa.Instr{Kind: isa.KLoad, Dst: isa.RDI, Base: isa.RBX, Disp: wide + 64}),
		output(
			isa.Instr{Kind: isa.KLea, Dst: isa.RDI, Base: isa.RBX, Disp: wide},
			isa.Instr{Kind: isa.KAlu, Alu: isa.AluSub, Dst: isa.RDI, Src: isa.RSP},
		),
		{
			{Kind: isa.KMovImm, Dst: isa.RDX, Imm: 2 * wide},
			{Kind: isa.KAlu, Alu: isa.AluAdd, Dst: isa.RDX, Src: isa.RSP},
		},
		output(isa.Instr{Kind: isa.KLoad, Dst: isa.RDI, Base: isa.RDX, Disp: -2*wide - 256}),
		output(isa.Instr{Kind: isa.KSet, Cmp: isa.CmpLt, Dst: isa.RDI, A: isa.RCX, B: isa.RAX}),
		output(isa.Instr{Kind: isa.KSet, Cmp: isa.CmpGeq, Dst: isa.RDI, A: isa.RCX, B: isa.RAX}),
		{call("f")},
		output(isa.Instr{Kind: isa.KMovImm, Dst: isa.RDI, Imm: 11}),
		{{Kind: isa.KJmp, Target: 0x10}, {Kind: isa.KRet}},
	} {
		main = append(main, seq...)
	}
	f := make([]isa.Instr, pad, pad+1)
	for i := range f {
		f[i].Kind = isa.KNop
	}
	for name, instrs := range map[string][]isa.Instr{
		"main": main,
		"f":    append(f, call("g")),
		"h":    append(output(isa.Instr{Kind: isa.KMovImm, Dst: isa.RDI, Imm: 9}), isa.Instr{Kind: isa.KRet}),
		"g":    append(output(isa.Instr{Kind: isa.KMovImm, Dst: isa.RDI, Imm: 7}), isa.Instr{Kind: isa.KRet}),
	} {
		for i := range instrs {
			instrs[i].LocalTarget = -1
		}
		fn := prog.Func(name)
		fn.Instrs, fn.BlockStarts = instrs, nil
	}
	img, err := image.Link(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestFastPathOperandEdges runs operandKernel on both engines: the edges
// the 32-byte op folds into one wide operand word and shared register
// bytes, a call whose return site is its function's end sentinel (shared
// with the next entry or not), and a jump to an unmapped target.
func TestFastPathOperandEdges(t *testing.T) {
	const v = 0x1122334455667788
	for _, c := range []struct {
		pad  int
		tail []uint64 // outputs after main's call to f
	}{
		{pad: 11, tail: []uint64{7, 9, 11}},
		{pad: 0, tail: []uint64{7}},
	} {
		img := operandKernel(t, c.pad)
		fast := runFast(newMachine(t, img, 1, vm.EPYCRome(), nil))
		ref := runRef(newMachine(t, img, 1, vm.EPYCRome(), nil))
		what := fmt.Sprintf("pad %d", c.pad)
		requireSame(t, what, fast, ref)
		want := append([]uint64{v, v, 1<<64 - 256, v, 1, 0}, c.tail...)
		if !reflect.DeepEqual(fast.res.Output, want) {
			t.Fatalf("%s: output %#x, want %#x", what, fast.res.Output, want)
		}
		fault := uint64(0x10)
		if c.pad == 0 {
			fault = img.Funcs["f"].End
		} else if img.Funcs["h"].Start != img.Funcs["f"].End {
			t.Fatalf("%s: h at %#x, not at f's end %#x", what, img.Funcs["h"].Start, img.Funcs["f"].End)
		}
		if f := fast.res.Fault; f == nil || f.Addr != fault || !f.Unmapped {
			t.Fatalf("%s: fault %+v, want an unmapped fetch at %#x", what, f, fault)
		}
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
		{3, 7, 509},        // cuts inside nearly every block
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
				if re != vm.ErrFuelExhausted {
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
	s, err := attack.NewScenario(exec.New(1, obs), defense.CFIShadowStack(), 3)
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
// The stop state and the flight record — ending in the detonation's trap
// frame, with its kind, PC and leaked address — must match exactly.
func TestFastPathTrapParity(t *testing.T) {
	fast, fs := scenarioResume(t, runFast, &telemetry.Observer{FlightCap: 64})
	ref, rs := scenarioResume(t, runRef, &telemetry.Observer{FlightCap: 64})
	if fast.res.Trap == nil {
		t.Fatalf("corrupted return did not trap: %+v", fast.res)
	}
	requireSame(t, "trap resume", fast, ref)
	fe, re := fs.Proc.Flight.Events(), rs.Proc.Flight.Events()
	if len(fe) == 0 || fe[len(fe)-1].Kind != telemetry.FlightTrap {
		t.Fatalf("flight record does not end in the trap: %+v", fe)
	}
	if !reflect.DeepEqual(fe, re) {
		t.Fatalf("flight records diverge\nfast:      %+v\nreference: %+v", fe, re)
	}
}

// TestFastPathMetricsJSONParity compares the -metrics-out artifact byte for
// byte: a fully instrumented run (registry + function profiler) must export
// the identical JSON under either engine. The profiler reads the cycle total
// at every call, return and cross-function jump, so the legs cover a
// call-dense module (xz), Figure 6's heaviest (nab), a webserver (nginx) and
// a profiled run resumed across hundreds of small Run calls.
func TestFastPathMetricsJSONParity(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale int
		chunk uint64 // instructions per Run call; 0 runs like production cells
	}{
		{"xz", 16, 0},
		{"nab", 64, 0},
		{"nginx", 16, 0},
		{"xz", 64, 4093},
	} {
		b, _ := workload.ByName(c.name)
		img := buildImage(t, b.Build(c.scale), defense.R2CFull(), 11)
		run := func(engine func(*vm.Machine) leg) (leg, []byte) {
			obs := &telemetry.Observer{Registry: telemetry.NewRegistry(), ProfileFuncs: true}
			mach := newMachine(t, img, 11, vm.EPYCRome(), obs)
			mach.EnableProfiler()
			l := engine(mach)
			mach.PublishMetrics(obs.Registry)
			mach.Profiler().Publish(obs.Registry)
			var buf bytes.Buffer
			if err := obs.Registry.WriteJSONMeta(&buf, nil); err != nil {
				t.Fatalf("metrics JSON: %v", err)
			}
			return l, buf.Bytes()
		}
		fastRun, refRun := runFast, runRef
		if c.chunk > 0 {
			fastRun, refRun = inChunks((*vm.Machine).Run, c.chunk), inChunks(vm.RunReference, c.chunk)
		}
		what := fmt.Sprintf("instrumented %s scale %d chunk %d", c.name, c.scale, c.chunk)
		fast, fj := run(fastRun)
		ref, rj := run(refRun)
		requireSame(t, what, fast, ref)
		if !fast.res.Halted {
			t.Fatalf("%s: run did not halt: %s", what, fast.err)
		}
		if !bytes.Equal(fj, rj) {
			t.Fatalf("%s: metrics JSON diverges\nfast:      %s\nreference: %s", what, fj, rj)
		}
	}
}

// inChunks runs a machine to its end on one engine, chunk instructions per
// call, so every chunk edge is a pause and a resume.
func inChunks(run func(*vm.Machine, uint64) (*vm.Result, error), chunk uint64) func(*vm.Machine) leg {
	return func(m *vm.Machine) leg {
		for {
			res, err := run(m, chunk)
			if err != vm.ErrFuelExhausted || res.Instructions >= sim.DefaultBudget {
				return leg{res, errString(err), m.CPU.PC}
			}
		}
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
