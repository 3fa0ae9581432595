package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/isa"
	"r2c/internal/mem"
	"r2c/internal/rt"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// torture builds a module exercising every TIR feature the workloads rely
// on: arithmetic, control flow, direct/indirect/tail calls, recursion,
// stack arguments (>6 params), locals, heap allocation, globals, default
// parameters and function pointers. Output words form a checksum trace that
// must be identical under every defense configuration.
func torture() *tir.Module {
	mb := tir.NewModule("torture")

	mb.AddGlobal("table", 32, 11, 22, 33, 44)
	mb.AddDefaultParam("default_mode", 7)

	// add8(a..h) = a + 2b + 3c + ... + 8h, with 2 stack arguments.
	add8 := mb.NewFunc("add8", 8)
	{
		acc := add8.Const(0)
		for i := 0; i < 8; i++ {
			w := add8.Const(uint64(i + 1))
			t := add8.Bin(tir.OpMul, add8.Param(i), w)
			add8.BinTo(acc, tir.OpAdd, acc, t)
		}
		add8.Ret(acc)
	}

	// fib(n): recursion.
	fib := mb.NewFunc("fib", 1)
	{
		two := fib.Const(2)
		cmp := fib.Bin(tir.OpLt, fib.Param(0), two)
		base := fib.NewBlock()
		rec := fib.NewBlock()
		fib.SetBlock(0)
		fib.CondBr(cmp, base, rec)
		fib.SetBlock(base)
		fib.Ret(fib.Param(0))
		fib.SetBlock(rec)
		one := fib.Const(1)
		n1 := fib.Bin(tir.OpSub, fib.Param(0), one)
		two2 := fib.Const(2)
		n2 := fib.Bin(tir.OpSub, fib.Param(0), two2)
		a := fib.Call("fib", n1)
		b := fib.Call("fib", n2)
		fib.Ret(fib.Bin(tir.OpAdd, a, b))
	}

	// mix(x): locals, loads/stores, bit ops.
	mix := mb.NewFunc("mix", 1)
	{
		l := mix.NewLocal("tmp", 16)
		a := mix.AddrLocal(l)
		mix.Store(a, 0, mix.Param(0))
		c13 := mix.Const(13)
		sh := mix.Bin(tir.OpShl, mix.Param(0), c13)
		mix.Store(a, 8, sh)
		v0 := mix.Load(a, 0)
		v1 := mix.Load(a, 8)
		x := mix.Bin(tir.OpXor, v0, v1)
		c7 := mix.Const(7)
		x2 := mix.Bin(tir.OpShr, x, c7)
		mix.Ret(mix.Bin(tir.OpXor, x, x2))
	}

	// twice(x) = mix(mix(x)) via tail call.
	twice := mb.NewFunc("twice", 1)
	{
		v := twice.Call("mix", twice.Param(0))
		twice.TailCall("mix", v)
	}

	// apply(f, x) = f(x): indirect call.
	apply := mb.NewFunc("apply", 2)
	apply.Ret(apply.CallIndirect(apply.Param(0), apply.Param(1)))

	mb.AddFuncPtr("mix_ptr", "mix")

	main := mb.NewFunc("main", 0)
	{
		// Heap round trip.
		sz := main.Const(64)
		buf := main.Alloc(sz)
		v := main.Const(0xfeed)
		main.Store(buf, 0, v)
		main.Store(buf, 40, v)
		r := main.Load(buf, 40)
		main.Output(r)

		// Globals and default parameters.
		tb := main.AddrGlobal("table")
		g1 := main.Load(tb, 8)
		main.Output(g1)
		dp := main.AddrGlobal("default_mode")
		main.Output(main.Load(dp, 0))

		// Loop: sum of mix(i) for i in [0,50).
		i := main.Const(0)
		n := main.Const(50)
		acc := main.Const(0)
		head := main.NewBlock()
		body := main.NewBlock()
		done := main.NewBlock()
		main.SetBlock(0)
		main.Br(head)
		main.SetBlock(head)
		c := main.Bin(tir.OpLt, i, n)
		main.CondBr(c, body, done)
		main.SetBlock(body)
		h := main.Call("mix", i)
		main.BinTo(acc, tir.OpAdd, acc, h)
		one := main.Const(1)
		main.BinTo(i, tir.OpAdd, i, one)
		main.Br(head)
		main.SetBlock(done)
		main.Output(acc)

		// Stack arguments.
		var args []tir.Reg
		for k := 0; k < 8; k++ {
			args = append(args, main.Const(uint64(k+3)))
		}
		main.Output(main.Call("add8", args...))

		// Recursion, tail calls, indirect calls.
		tenArg := main.Const(10)
		main.Output(main.Call("fib", tenArg))
		tw := main.Const(0x1234)
		main.Output(main.Call("twice", tw))
		fp := main.AddrGlobal("mix_ptr")
		fn := main.Load(fp, 0)
		seed := main.Const(99)
		main.Output(main.CallIndirect(fn, seed))
		fn2 := main.AddrFunc("mix")
		seed2 := main.Const(77)
		main.Output(main.CallIndirect(fn2, seed2))

		main.Free(buf)
		main.RetVoid()
	}

	mb.SetEntry("main")
	return mb.MustBuild()
}

func allConfigs() []defense.Config {
	cfgs := []defense.Config{defense.Off(), defense.R2CFull(), defense.R2CPush(), defense.OIAOnly(), defense.BTRAAVX512()}
	cfgs = append(cfgs, defense.Components()...)
	cfgs = append(cfgs, defense.Baselines()...)
	cfgs = append(cfgs, defense.ReadactorPP(), defense.Smokestack(), defense.CFIShadowStack())
	checked := defense.R2CFull()
	checked.Name = "r2c-btra-checks"
	checked.CheckBTRAsOnReturn = true
	tramp := defense.R2CPush()
	tramp.Name = "r2c-push-trampolines"
	tramp.StackArgTrampolines = true
	combo := defense.R2CFull()
	combo.Name = "r2c-shadowstack"
	combo.ShadowStack = true
	cfgs = append(cfgs, checked, tramp, combo)
	return cfgs
}

// TestRegisterFreeMain builds a main that defines no register, the
// smallest function TIR verifies, and runs it under every configuration:
// it must compile, link and halt.
func TestRegisterFreeMain(t *testing.T) {
	mb := tir.NewModule("empty")
	mb.NewFunc("main", 0).RetVoid()
	mb.SetEntry("main")
	m := mb.MustBuild()
	for _, cfg := range allConfigs() {
		res, _, err := Run(m, cfg, 1, vm.EPYCRome())
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if !res.Halted {
			t.Fatalf("%s: did not halt", cfg.Name)
		}
	}
}

// TestSymbolsResolve checks the per-program symbol table under every
// configuration, on the torture module and every built-in workload: each
// symbol reference of an instruction or a data word is in range of its
// program's table, and Link resolved it to the named symbol's address plus
// the reference's offset.
func TestSymbolsResolve(t *testing.T) {
	mods := []*tir.Module{torture(), workload.Nginx(8), workload.Apache(8)}
	for _, b := range workload.SPEC() {
		mods = append(mods, b.Build(8))
	}
	for _, m := range mods {
		for _, cfg := range allConfigs() {
			img, err := BuildImage(m, cfg, 1, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, cfg.Name, err)
			}
			syms := img.Prog.Syms
			if len(syms) == 0 || syms[0] != "" {
				t.Fatalf("%s/%s: symbol 0 is not the empty name", m.Name, cfg.Name)
			}
			addr := func(s isa.Sym) uint64 {
				if int(s) >= len(syms) {
					t.Fatalf("%s/%s: symbol %d outside a table of %d", m.Name, cfg.Name, s, len(syms))
				}
				if pf, ok := img.Funcs[syms[s]]; ok {
					return pf.Start
				}
				if ds, ok := img.DataSyms[syms[s]]; ok {
					return ds.Addr
				}
				t.Fatalf("%s/%s: symbol %q is not placed", m.Name, cfg.Name, syms[s])
				return 0
			}
			for _, name := range img.FuncOrder {
				for i, in := range img.Funcs[name].F.Instrs {
					if in.Sym == isa.NoSym {
						continue
					}
					if want := addr(in.Sym) + uint64(in.SymOff); in.Target != want {
						t.Fatalf("%s/%s: %s[%d] %s resolved to %#x, want %#x",
							m.Name, cfg.Name, name, i, in.Format(syms), in.Target, want)
					}
				}
			}
			for _, b := range img.Prog.Blobs {
				base := img.DataSyms[b.Name].Addr
				for i, w := range b.Words {
					if w.Sym == isa.NoSym {
						continue
					}
					if got, want := img.DataInit[base+uint64(i)*8], addr(w.Sym)+uint64(w.Off); got != want {
						t.Fatalf("%s/%s: %s word %d holds %#x, want %#x", m.Name, cfg.Name, b.Name, i, got, want)
					}
				}
			}
		}
	}
}

// TestDifferentialAllConfigs is the toolchain's cornerstone test: the
// torture program must produce identical output under every defense
// configuration and several seeds — diversification must never change
// program semantics.
func TestDifferentialAllConfigs(t *testing.T) {
	m := torture()
	baseRes, _, err := Run(m, defense.Off(), 1, vm.EPYCRome())
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if len(baseRes.Output) == 0 {
		t.Fatal("baseline produced no output")
	}
	for _, cfg := range allConfigs() {
		for seed := uint64(1); seed <= 3; seed++ {
			res, _, err := Run(m, cfg, seed, vm.EPYCRome())
			if err != nil {
				t.Fatalf("%s seed %d: %v", cfg.Name, seed, err)
			}
			if !reflect.DeepEqual(res.Output, baseRes.Output) {
				t.Fatalf("%s seed %d: output diverged\n got %v\nwant %v",
					cfg.Name, seed, res.Output, baseRes.Output)
			}
		}
	}
}

func TestExpectedOutputValues(t *testing.T) {
	// Spot-check semantic ground truth (computed by hand/host):
	// fib(10) = 55.
	res, _, err := Run(torture(), defense.Off(), 7, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 0xfeed {
		t.Errorf("heap round trip = %#x", res.Output[0])
	}
	if res.Output[1] != 22 {
		t.Errorf("global load = %d", res.Output[1])
	}
	if res.Output[2] != 7 {
		t.Errorf("default param = %d", res.Output[2])
	}
	// add8(3..10) with weights 1..8 = sum (k+3)*(k+1) for k=0..7.
	want := uint64(0)
	for k := uint64(0); k < 8; k++ {
		want += (k + 3) * (k + 1)
	}
	if res.Output[4] != want {
		t.Errorf("add8 = %d, want %d", res.Output[4], want)
	}
	if res.Output[5] != 55 {
		t.Errorf("fib(10) = %d, want 55", res.Output[5])
	}
}

// TestDiversificationActuallyDiversifies verifies that two seeds produce
// different layouts under full R2C (and identical ones in the baseline).
func TestDiversificationActuallyDiversifies(t *testing.T) {
	m := torture()
	p1, err := Build(m, defense.R2CFull(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(m, defense.R2CFull(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1.Img.FuncOrder, p2.Img.FuncOrder) {
		t.Error("function order identical across seeds")
	}
	// Same seed must reproduce the layout exactly.
	p1b, err := Build(m, defense.R2CFull(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Img.FuncOrder, p1b.Img.FuncOrder) {
		t.Error("same seed produced different function order")
	}
	if p1.Img.TextBase == p2.Img.TextBase {
		t.Error("ASLR produced identical text bases for different seeds")
	}
}

func TestInstructionCountsAreReasonable(t *testing.T) {
	m := torture()
	base, _, err := Run(m, defense.Off(), 1, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := Run(m, defense.R2CFull(), 1, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	if full.Instructions <= base.Instructions {
		t.Errorf("full R2C executed fewer instructions (%d) than baseline (%d)",
			full.Instructions, base.Instructions)
	}
	if full.Calls != base.Calls {
		t.Errorf("call counts differ: %d vs %d (diversification must not add calls)",
			full.Calls, base.Calls)
	}
	if base.Calls == 0 {
		t.Error("no calls executed")
	}
}

// TestExecMachineEndings runs one program per way a run can end and checks
// both what ExecMachine returns and how its "sim.exec" span labels the end.
func TestExecMachineEndings(t *testing.T) {
	divZero := func() *tir.Module {
		mb := tir.NewModule("divzero")
		main := mb.NewFunc("main", 0)
		main.Output(main.Bin(tir.OpDiv, main.Const(1), main.Const(0)))
		main.RetVoid()
		mb.SetEntry("main")
		return mb.MustBuild()
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		end      string
		m        *tir.Module
		cfg      defense.Config
		ctx      context.Context
		maxInstr uint64
		arm      func(*rt.Process, *vm.Machine)
		check    func(*vm.Result, error) bool
	}{
		{end: "halt", m: torture(), cfg: defense.Off(),
			check: func(r *vm.Result, err error) bool { return err == nil && r.Halted }},
		{end: "trap", m: torture(), cfg: defense.R2CFull(),
			arm: func(p *rt.Process, m *vm.Machine) {
				for _, name := range p.Img.FuncOrder {
					if pf := p.Img.Funcs[name]; pf.F.BoobyTrap {
						m.CPU.PC = pf.Start
						return
					}
				}
			},
			check: func(r *vm.Result, err error) bool { return err != nil && r.Trap != nil }},
		{end: "fault", m: torture(), cfg: defense.Off(),
			arm: func(p *rt.Process, _ *vm.Machine) {
				_ = p.Space.Protect(mem.AlignDown(p.InitialRSP-8, mem.PageSize), mem.PageSize, mem.PermNone)
			},
			check: func(r *vm.Result, err error) bool { return err != nil && r.Fault != nil }},
		{end: "fuel", m: torture(), cfg: defense.Off(), maxInstr: 100,
			check: func(_ *vm.Result, err error) bool { return errors.Is(err, vm.ErrFuelExhausted) }},
		{end: "cancelled", m: torture(), cfg: defense.Off(), ctx: cancelled,
			check: func(_ *vm.Result, err error) bool { return err == context.Canceled }},
		{end: "error", m: divZero(), cfg: defense.Off(),
			check: func(r *vm.Result, err error) bool {
				return err != nil && strings.Contains(err.Error(), "division by zero") && r.Trap == nil && r.Fault == nil
			}},
	} {
		t.Run(tc.end, func(t *testing.T) {
			p, err := Build(tc.m, tc.cfg, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			mach := vm.New(p, vm.EPYCRome())
			if tc.arm != nil {
				tc.arm(p, mach)
			}
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			spans := &telemetry.SpanCollector{}
			root := telemetry.StartSpan(spans, "test", 1)
			res, err := ExecMachine(ctx, mach, nil, root, tc.maxInstr)
			root.End()
			if !tc.check(res, err) {
				t.Fatalf("unexpected return: err=%v result=%+v", err, res)
			}
			var sp []telemetry.SpanData
			for _, d := range spans.Spans() {
				if d.Name == "sim.exec" {
					sp = append(sp, d)
				}
			}
			if len(sp) != 1 {
				t.Fatalf("%d sim.exec spans, want 1", len(sp))
			}
			if got := sp[0].Attrs["end"]; got != tc.end {
				t.Errorf("span end = %v, want %s", got, tc.end)
			}
			if tc.end == "error" && sp[0].Attrs["error"] != err.Error() {
				t.Errorf("span error = %v, want %q", sp[0].Attrs["error"], err.Error())
			}
		})
	}
}
