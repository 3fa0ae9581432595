package vm_test

import (
	"errors"
	"testing"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/isa"
	"r2c/internal/mem"
	"r2c/internal/sim"
	"r2c/internal/tir"
	"r2c/internal/vm"
)

// smallModule: main computes via calls and loops, outputs a checksum.
func smallModule() *tir.Module {
	mb := tir.NewModule("vmtest")
	sq := mb.NewFunc("sq", 1)
	sq.Ret(sq.Bin(tir.OpMul, sq.Param(0), sq.Param(0)))
	tail := mb.NewFunc("tail", 1)
	tail.TailCall("sq", tail.Param(0))
	main := mb.NewFunc("main", 0)
	i := main.Const(0)
	n := main.Const(20)
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
	s := main.Call("sq", i)
	tv := main.Call("tail", i)
	main.BinTo(acc, tir.OpAdd, acc, s)
	main.BinTo(acc, tir.OpXor, acc, tv)
	one := main.Const(1)
	main.BinTo(i, tir.OpAdd, i, one)
	main.Br(head)
	main.SetBlock(done)
	main.Output(acc)
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

func TestRunToCompletion(t *testing.T) {
	res, _, err := sim.Run(smallModule(), defense.Off(), 1, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || len(res.Output) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Cycles <= 0 || res.Instructions == 0 {
		t.Fatal("no cost accounted")
	}
}

func TestCallCountingExcludesTailCalls(t *testing.T) {
	res, _, err := sim.Run(smallModule(), defense.Off(), 1, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	// Per iteration: call sq + call tail (the tail->sq transfer is a jump).
	// Plus _start's call to main and output/exit stubs? Output is a stub
	// call per Output op. 20 iterations × (sq + tail) + main + output = 42.
	want := uint64(20*2 + 1 + 1)
	if res.Calls != want {
		t.Fatalf("calls = %d, want %d (tail calls must not count)", res.Calls, want)
	}
}

func TestPauseResumeEquivalence(t *testing.T) {
	m := smallModule()
	full, _, err := sim.Run(m, defense.R2CFull(), 3, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	// Same build, run in many small slices: identical totals.
	proc, err := sim.Build(m, defense.R2CFull(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	mach := vm.New(proc, vm.EPYCRome())
	var res *vm.Result
	for {
		res, err = mach.Run(137)
		if errors.Is(err, vm.ErrFuelExhausted) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	if res.Instructions != full.Instructions {
		t.Fatalf("sliced run: %d instructions, want %d", res.Instructions, full.Instructions)
	}
	if res.Cycles != full.Cycles {
		t.Fatalf("sliced run: %v cycles, want %v", res.Cycles, full.Cycles)
	}
	if len(res.Output) != len(full.Output) || res.Output[0] != full.Output[0] {
		t.Fatalf("sliced run output diverged")
	}
}

func TestVZeroUpperAblation(t *testing.T) {
	// Omitting vzeroupper must cost substantially more (Section 5.1.2:
	// "without vzeroupper we observed a performance impact of up to 50%").
	m := smallModule()
	good, _, err := sim.Run(m, defense.BTRAAVXOnly(), 5, vm.I99900K())
	if err != nil {
		t.Fatal(err)
	}
	bad := defense.BTRAAVXOnly()
	bad.OmitVZeroUpper = true
	worse, _, err := sim.Run(m, bad, 5, vm.I99900K())
	if err != nil {
		t.Fatal(err)
	}
	if worse.Cycles <= good.Cycles*1.1 {
		t.Fatalf("omitting vzeroupper cost only %.1f%% extra",
			(worse.Cycles/good.Cycles-1)*100)
	}
}

func TestStackAlignmentAtVectorStores(t *testing.T) {
	// The AVX2 setup's vector stores execute without alignment faults on
	// every seed — the invariant the alignment BTRA maintains (Section 5.1).
	m := smallModule()
	for seed := uint64(1); seed <= 12; seed++ {
		if _, _, err := sim.Run(m, defense.BTRAAVXOnly(), seed, vm.EPYCRome()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDivisionByZeroIsAnError(t *testing.T) {
	mb := tir.NewModule("divzero")
	main := mb.NewFunc("main", 0)
	a := main.Const(1)
	z := main.Const(0)
	d := main.Bin(tir.OpDiv, a, z)
	main.Output(d)
	main.RetVoid()
	mb.SetEntry("main")
	_, _, err := sim.Run(mb.MustBuild(), defense.Off(), 1, vm.EPYCRome())
	if err == nil {
		t.Fatal("division by zero did not error")
	}
}

func TestExitStatus(t *testing.T) {
	proc, err := sim.Build(smallModule(), defense.Off(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mach := vm.New(proc, vm.EPYCRome())
	res, err := mach.Run(sim.DefaultBudget)
	if err != nil || !res.Halted {
		t.Fatalf("run: %v %+v", err, res)
	}
}

func TestRSSSampling(t *testing.T) {
	proc, err := sim.Build(smallModule(), defense.R2CFull(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	mach := vm.New(proc, vm.EPYCRome())
	mach.SampleEvery = 200
	res, err := mach.Run(sim.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RSSSamples) == 0 {
		t.Fatal("no RSS samples")
	}
	if res.MaxRSSBytes == 0 {
		t.Fatal("no maxrss")
	}
	for _, s := range res.RSSSamples {
		if s > res.MaxRSSBytes {
			t.Fatal("sample exceeds maxrss")
		}
	}
}

func TestICacheFlushCostsCycles(t *testing.T) {
	m := smallModule()
	build := func(flush uint64) *vm.Result {
		proc, err := sim.Build(m, defense.Off(), 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		mach := vm.New(proc, vm.EPYCRome())
		mach.FlushICacheEvery = flush
		res, err := mach.Run(sim.DefaultBudget)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noFlush := build(0)
	flushed := build(100)
	if flushed.Cycles <= noFlush.Cycles {
		t.Fatal("icache flushing did not cost cycles")
	}
	if flushed.ICacheMisses <= noFlush.ICacheMisses {
		t.Fatal("icache flushing did not add misses")
	}
}

func TestProfilesDiffer(t *testing.T) {
	m := smallModule()
	var cycles []float64
	for _, p := range vm.AllMachines() {
		res, _, err := sim.Run(m, defense.R2CFull(), 6, p)
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, res.Cycles)
		if res.Seconds(p) <= 0 {
			t.Fatal("no wall-clock conversion")
		}
	}
	same := true
	for i := 1; i < len(cycles); i++ {
		if cycles[i] != cycles[0] {
			same = false
		}
	}
	if same {
		t.Fatal("all machine profiles produced identical cycle counts")
	}
}

// TestUnwinderWalksBTRAFrames pauses a run mid-call-chain and unwinds
// through BTRA-instrumented frames — the Section 7.2.4 exception-handling
// support.
func TestUnwinderWalksBTRAFrames(t *testing.T) {
	mb := tir.NewModule("unwind")
	inner := mb.NewFunc("inner", 1)
	{
		l := inner.NewLocal("x", 8)
		a := inner.AddrLocal(l)
		inner.Store(a, 0, inner.Param(0))
		// A long loop to pause inside.
		i := inner.Const(0)
		n := inner.Const(100000)
		head := inner.NewBlock()
		body := inner.NewBlock()
		done := inner.NewBlock()
		inner.SetBlock(0)
		inner.Br(head)
		inner.SetBlock(head)
		c := inner.Bin(tir.OpLt, i, n)
		inner.CondBr(c, body, done)
		inner.SetBlock(body)
		one := inner.Const(1)
		inner.BinTo(i, tir.OpAdd, i, one)
		inner.Br(head)
		inner.SetBlock(done)
		inner.Ret(inner.Load(a, 0))
	}
	mid := mb.NewFunc("mid", 1)
	mid.Ret(mid.Call("inner", mid.Param(0)))
	outer := mb.NewFunc("outer", 1)
	outer.Ret(outer.Call("mid", outer.Param(0)))
	main := mb.NewFunc("main", 0)
	v := main.Const(9)
	main.Output(main.Call("outer", v))
	main.RetVoid()
	mb.SetEntry("main")
	m := mb.MustBuild()

	for _, cfg := range []defense.Config{defense.Off(), defense.R2CFull(), defense.R2CPush()} {
		proc, err := sim.Build(m, cfg, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		mach := vm.New(proc, vm.EPYCRome())
		if _, err := mach.Run(50_000); !errors.Is(err, vm.ErrFuelExhausted) {
			t.Fatalf("%s: did not pause: %v", cfg.Name, err)
		}
		pc := mach.CPU.PC
		if f := proc.Img.FuncAt(pc); f == nil || f.F.Name != "inner" {
			t.Skipf("%s: paused in %v, not inner", cfg.Name, pc)
		}
		frames, err := proc.Unwind(pc, mach.CPU.R[isa.RSP], 10)
		if err != nil {
			t.Fatalf("%s: unwind: %v", cfg.Name, err)
		}
		var names []string
		for _, fr := range frames {
			names = append(names, fr.FuncName)
		}
		want := []string{"inner", "mid", "outer", "main", "_start"}
		if len(names) != len(want) {
			t.Fatalf("%s: frames = %v, want %v", cfg.Name, names, want)
		}
		for i := range want {
			if names[i] != want[i] {
				t.Fatalf("%s: frames = %v, want %v", cfg.Name, names, want)
			}
		}
	}
}

// pausedPoller builds a loop that polls the global g up to pollCount times and
// outputs how many polls it made, loads it, and pauses it after pauseAfter
// instructions on the given engine. No runtime call in the loop flushes the
// data TLB, so g's page stays cached across the pause.
func pausedPoller(t *testing.T, run func(*vm.Machine, uint64) (*vm.Result, error)) (*vm.Machine, *image.Image) {
	t.Helper()
	mb := tir.NewModule("pausewrite")
	mb.AddGlobal("g", 8, 5)
	main := mb.NewFunc("main", 0)
	i := main.Const(0)
	head, next, done := main.NewBlock(), main.NewBlock(), main.NewBlock()
	main.SetBlock(0)
	main.Br(head)
	main.SetBlock(head)
	v := main.Load(main.AddrGlobal("g"), 0)
	main.CondBr(main.Bin(tir.OpEq, v, main.Const(77)), done, next)
	main.SetBlock(next)
	main.BinTo(i, tir.OpAdd, i, main.Const(1))
	main.CondBr(main.Bin(tir.OpLt, i, main.Const(pollCount)), head, done)
	main.SetBlock(done)
	main.Output(i)
	main.RetVoid()
	mb.SetEntry("main")
	img, err := sim.BuildImage(mb.MustBuild(), defense.Off(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := sim.NewProcessFromImage(img, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(proc, vm.EPYCRome())
	if _, err := run(m, pauseAfter); !errors.Is(err, vm.ErrFuelExhausted) {
		t.Fatalf("run did not pause: %v", err)
	}
	return m, img
}

// pollCount is how many times pausedPoller's loop polls g, and pauseAfter
// how many instructions it retires before the pause.
const pollCount, pauseAfter = 100_000, 500

// engines are the two interpreters behind Run, by name.
var engines = []struct {
	name string
	run  func(*vm.Machine, uint64) (*vm.Result, error)
}{
	{"fast", (*vm.Machine).Run},
	{"reference", vm.RunReference},
}

// TestStoreWhilePausedIsSeenOnResume pins the attacker's write path against
// the software TLB: a machine paused inside a loop that polls a global has
// the data page cached as a slab still shared with the process snapshot; a
// Space.Write64 then copies the page into the fork, and the resumed run
// must read the new word, not the stale shared bytes.
func TestStoreWhilePausedIsSeenOnResume(t *testing.T) {
	for _, e := range engines {
		m, img := pausedPoller(t, e.run)
		if err := m.Proc.Space.Write64(img.DataSyms["g"].Addr, 77); err != nil {
			t.Fatal(err)
		}
		res, err := e.run(m, sim.DefaultBudget)
		if err != nil || !res.Halted {
			t.Fatalf("%s: resumed run: %v", e.name, err)
		}
		if got := res.Output; len(got) != 1 || got[0] == 0 || got[0] >= pollCount {
			t.Fatalf("%s: loop exited after %v polls: the store made while paused was not seen", e.name, got)
		}
	}
}

// TestProtectWhilePausedIsSeenOnResume revokes permissions while the
// poller is paused: with g's page made unreadable the resumed run must
// read-fault at the load of g, and with the code page made non-executable
// it must fetch-fault at the PC it paused on, before retiring anything.
// Neither the cached TLB entry nor the remembered exec page may outlive
// the pause.
func TestProtectWhilePausedIsSeenOnResume(t *testing.T) {
	page := func(a uint64) uint64 { return a &^ mem.PageMask }
	for _, e := range engines {
		m, img := pausedPoller(t, e.run)
		g := img.DataSyms["g"].Addr
		if err := m.Proc.Space.Protect(page(g), mem.PageSize, mem.PermNone); err != nil {
			t.Fatal(err)
		}
		res, err := e.run(m, sim.DefaultBudget)
		if err != nil || res.Halted || res.Fault == nil {
			t.Fatalf("%s: unreadable g: resumed run did not fault (err %v, result %+v)", e.name, err, res)
		}
		if f := res.Fault; f.Addr != g || f.Access != mem.AccessRead {
			t.Fatalf("%s: unreadable g: fault %+v, want a read of %#x", e.name, f, g)
		}
		pf := img.FuncAt(m.CPU.PC)
		if pf == nil || pf.F.Instrs[pf.InstrIndexAt(m.CPU.PC)].Kind != isa.KLoad {
			t.Fatalf("%s: unreadable g: stopped at %#x, not at the load of g", e.name, m.CPU.PC)
		}

		m, _ = pausedPoller(t, e.run)
		pc := m.CPU.PC
		if err := m.Proc.Space.Protect(page(pc), mem.PageSize, mem.PermRead); err != nil {
			t.Fatal(err)
		}
		res, err = e.run(m, sim.DefaultBudget)
		if err != nil || res.Halted || res.Fault == nil {
			t.Fatalf("%s: read-only code: resumed run did not fault (err %v, result %+v)", e.name, err, res)
		}
		if f := res.Fault; f.Addr != pc || f.Access != mem.AccessExec || m.CPU.PC != pc || res.Instructions != pauseAfter {
			t.Fatalf("%s: read-only code: fault %+v at PC %#x after %d instructions, want a fetch of %#x after %d",
				e.name, f, m.CPU.PC, res.Instructions, pc, pauseAfter)
		}
	}
}

// TestProtectSyscallRevokesExecAtOnce runs a kernel whose main revokes exec
// on its own text page with SysProtect: the very next fetch, from the same
// page, must fault on both engines. The kernel is lowered from an empty
// main whose body is then replaced before Link, since no codegen path
// emits SysProtect.
func TestProtectSyscallRevokesExecAtOnce(t *testing.T) {
	mb := tir.NewModule("protect")
	mb.NewFunc("main", 0).RetVoid()
	mb.SetEntry("main")
	prog, err := codegen.Compile(mb.MustBuild(), defense.Off(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("main")
	fn.Instrs = []isa.Instr{
		{Kind: isa.KMovImm, Dst: isa.RDI, Sym: prog.Intern("main"), LocalTarget: -1},
		{Kind: isa.KAluImm, Alu: isa.AluAnd, Dst: isa.RDI, Imm: ^uint64(mem.PageMask), LocalTarget: -1},
		{Kind: isa.KMovImm, Dst: isa.RSI, Imm: mem.PageSize, LocalTarget: -1},
		{Kind: isa.KMovImm, Dst: isa.RDX, Imm: uint64(mem.PermRead), LocalTarget: -1},
		{Kind: isa.KSys, Sys: isa.SysProtect, LocalTarget: -1},
		{Kind: isa.KNop, LocalTarget: -1}, // must fetch-fault
		{Kind: isa.KHalt, LocalTarget: -1},
	}
	fn.BlockStarts = codegen.BlockBoundaries(fn.Instrs)
	img, err := image.Link(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	pf := img.Funcs["main"]
	pc := pf.InstrAddrs[5]
	if pc>>mem.PageShift != pf.Start>>mem.PageShift {
		t.Fatalf("main straddles a page (%#x..%#x): the kernel needs one page", pf.Start, pc)
	}
	for _, e := range engines {
		m := newMachine(t, img, 1, vm.EPYCRome(), nil)
		res, err := e.run(m, sim.DefaultBudget)
		if err != nil || res.Halted || res.Fault == nil {
			t.Fatalf("%s: ran on after revoking exec (err %v, halted %v, fault %v)", e.name, err, res.Halted, res.Fault)
		}
		if f := res.Fault; f.Addr != pc || f.Access != mem.AccessExec || m.CPU.PC != pc {
			t.Fatalf("%s: fault %+v at PC %#x, want a fetch of %#x", e.name, f, m.CPU.PC, pc)
		}
	}
}
