package vm_test

import (
	"testing"

	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
)

// Microbenchmarks for the interpreter core, one per code shape, each
// reporting Minstr/s. Every iteration executes a freshly loaded process to
// completion; programs are sized so load time is noise.

// aluLoopModule is a tight arithmetic kernel: one hot block, no calls, no
// memory traffic — the best case for block-batched accounting and the
// dense-switch dispatch.
func aluLoopModule() *tir.Module {
	mb := tir.NewModule("bench-alu-loop")
	main := mb.NewFunc("main", 0)
	i := main.Const(0)
	n := main.Const(100_000)
	acc := main.Const(0x9e3779b9)
	head := main.NewBlock()
	body := main.NewBlock()
	done := main.NewBlock()
	main.SetBlock(0)
	main.Br(head)
	main.SetBlock(head)
	c := main.Bin(tir.OpLt, i, n)
	main.CondBr(c, body, done)
	main.SetBlock(body)
	c13 := main.Const(13)
	sh := main.Bin(tir.OpShl, acc, c13)
	main.BinTo(acc, tir.OpXor, acc, sh)
	c7 := main.Const(7)
	sr := main.Bin(tir.OpShr, acc, c7)
	main.BinTo(acc, tir.OpXor, acc, sr)
	main.BinTo(acc, tir.OpAdd, acc, i)
	one := main.Const(1)
	main.BinTo(i, tir.OpAdd, i, one)
	main.Br(head)
	main.SetBlock(done)
	main.Output(acc)
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

// callDenseModule hammers the call/return machinery: a short leaf called
// from a hot loop. Under R2C configs each call site carries BTRA pushes —
// the code shape the push superinstructions target.
func callDenseModule() *tir.Module {
	mb := tir.NewModule("bench-call-dense")
	leaf := mb.NewFunc("leaf", 1)
	c3 := leaf.Const(3)
	t := leaf.Bin(tir.OpMul, leaf.Param(0), c3)
	one := leaf.Const(1)
	leaf.Ret(leaf.Bin(tir.OpAdd, t, one))

	main := mb.NewFunc("main", 0)
	i := main.Const(0)
	n := main.Const(60_000)
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
	v := main.Call("leaf", i)
	main.BinTo(acc, tir.OpAdd, acc, v)
	one2 := main.Const(1)
	main.BinTo(i, tir.OpAdd, i, one2)
	main.Br(head)
	main.SetBlock(done)
	main.Output(acc)
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

// loadStoreModule churns the data path: every iteration stores and reloads
// through a local buffer, exercising the TLB slab cache and the fast path's
// memory helpers.
func loadStoreModule() *tir.Module {
	mb := tir.NewModule("bench-load-store")
	main := mb.NewFunc("main", 0)
	l := main.NewLocal("buf", 64)
	base := main.AddrLocal(l)
	i := main.Const(0)
	n := main.Const(60_000)
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
	main.Store(base, 0, i)
	main.Store(base, 8, acc)
	v0 := main.Load(base, 0)
	v1 := main.Load(base, 8)
	x := main.Bin(tir.OpXor, v0, v1)
	main.BinTo(acc, tir.OpAdd, acc, x)
	main.Store(base, 16, acc)
	v2 := main.Load(base, 16)
	main.BinTo(acc, tir.OpXor, acc, v2)
	one := main.Const(1)
	main.BinTo(i, tir.OpAdd, i, one)
	main.Br(head)
	main.SetBlock(done)
	main.Output(acc)
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

func buildBenchImage(b *testing.B, m *tir.Module, cfg defense.Config) *image.Image {
	b.Helper()
	img, err := sim.BuildImage(m, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	return img
}

func runBenchImage(b *testing.B, img *image.Image) {
	b.Helper()
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc, err := sim.NewProcessFromImage(img, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		mach := vm.New(proc, vm.EPYCRome())
		res, err := mach.Run(sim.DefaultBudget)
		if err != nil || !res.Halted {
			b.Fatalf("run: halted=%v err=%v", res.Halted, err)
		}
		instrs += res.Instructions
	}
	b.StopTimer()
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func benchModule(b *testing.B, m *tir.Module, cfg defense.Config) {
	b.Helper()
	runBenchImage(b, buildBenchImage(b, m, cfg))
}

func BenchmarkVMAluLoop(b *testing.B) {
	benchModule(b, aluLoopModule(), defense.Off())
}

func BenchmarkVMCallDenseOff(b *testing.B) {
	benchModule(b, callDenseModule(), defense.Off())
}

func BenchmarkVMCallDenseR2CFull(b *testing.B) {
	benchModule(b, callDenseModule(), defense.R2CFull())
}

func BenchmarkVMCallDenseR2CPush(b *testing.B) {
	benchModule(b, callDenseModule(), defense.R2CPush())
}

func BenchmarkVMLoadStore(b *testing.B) {
	benchModule(b, loadStoreModule(), defense.Off())
}

// runBenchImageFlight is runBenchImage with a flight recorder attached —
// the enabled-but-idle overhead gate for the security observatory: the
// recorder hooks fire on every call/ret/jump, so this measures their
// steady-state dispatch cost against the recorder-free numbers above.
func runBenchImageFlight(b *testing.B, img *image.Image) {
	b.Helper()
	obs := &telemetry.Observer{FlightCap: 64}
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc, err := sim.NewProcessFromImage(img, 1, obs)
		if err != nil {
			b.Fatal(err)
		}
		if proc.Flight == nil {
			b.Fatal("flight recorder not attached")
		}
		mach := vm.New(proc, vm.EPYCRome())
		res, err := mach.Run(sim.DefaultBudget)
		if err != nil || !res.Halted {
			b.Fatalf("run: halted=%v err=%v", res.Halted, err)
		}
		instrs += res.Instructions
	}
	b.StopTimer()
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkVMCallDenseR2CFullFlight(b *testing.B) {
	runBenchImageFlight(b, buildBenchImage(b, callDenseModule(), defense.R2CFull()))
}
