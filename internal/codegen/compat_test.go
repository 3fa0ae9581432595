package codegen

import (
	"testing"

	"r2c/internal/defense"
	"r2c/internal/isa"
	"r2c/internal/tir"
)

// boundaryModule reproduces the Section 7.4.2 situation: unprotected code
// (a system library stand-in) calls a protected function that takes stack
// arguments — directly (the WebKit unit-test case) and through a function
// pointer (the XML-callback case).
func boundaryModule(t *testing.T) *tir.Module {
	t.Helper()
	mb := tir.NewModule("boundary")

	// Protected, 8 parameters: two arrive on the stack.
	wide := mb.NewFunc("wide8", 8)
	acc := wide.Param(0)
	for i := 1; i < 8; i++ {
		acc = wide.Bin(tir.OpAdd, acc, wide.Param(i))
	}
	wide.Ret(acc)

	// Protected callback with stack args, address-escaped via a global.
	cb := mb.NewFunc("callback7", 7)
	a7 := cb.Bin(tir.OpXor, cb.Param(0), cb.Param(6))
	cb.Ret(a7)
	mb.AddFuncPtr("cb_ptr", "callback7")

	// The "library": unprotected code calling both.
	lib := mb.NewFunc("libwrap", 1)
	lib.Unprotected()
	var args []tir.Reg
	for i := 0; i < 8; i++ {
		c := lib.Const(uint64(i + 1))
		x := lib.Bin(tir.OpMul, lib.Param(0), c)
		args = append(args, x)
	}
	r := lib.Call("wide8", args...)
	fpA := lib.AddrGlobal("cb_ptr")
	fp := lib.Load(fpA, 0)
	r2 := lib.CallIndirect(fp, args[:7]...)
	lib.Ret(lib.Bin(tir.OpAdd, r, r2))

	main := mb.NewFunc("main", 0)
	v := main.Const(3)
	out := main.Call("libwrap", v)
	main.Output(out)
	// Protected code also calls wide8 directly (mixed callers).
	var margs []tir.Reg
	for i := 0; i < 8; i++ {
		margs = append(margs, main.Const(uint64(i+10)))
	}
	main.Output(main.Call("wide8", margs...))
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

func TestAffectedDetection(t *testing.T) {
	m := boundaryModule(t)
	aff := affectedStackArgFuncs(m)
	if !aff["wide8"] {
		t.Error("wide8 (directly called from unprotected code) not detected")
	}
	if !aff["callback7"] {
		t.Error("callback7 (escaped, unprotected indirect calls exist) not detected")
	}
	if aff["libwrap"] || aff["main"] {
		t.Errorf("false positives: %v", aff)
	}
}

func TestDowngradeDisablesBTRAsForAffected(t *testing.T) {
	// The paper's default: affected functions are compiled without BTRAs
	// so every caller's convention works (Section 7.4.2).
	p, err := Compile(boundaryModule(t), defense.R2CFull(), 3)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Func("wide8")
	if w.PostOffset != 0 {
		t.Errorf("downgraded wide8 keeps post-offset %d", w.PostOffset)
	}
	for _, f := range p.Funcs {
		for _, cs := range f.CallSites {
			if cs.Callee == "wide8" && (cs.Pre != 0 || cs.Post != 0) {
				t.Errorf("call site to downgraded wide8 still has BTRAs: %+v", cs)
			}
		}
	}
	// Non-affected functions keep their protection.
	mainF := p.Func("main")
	hasBTRA := false
	for _, cs := range mainF.CallSites {
		if cs.Pre > 0 {
			hasBTRA = true
		}
	}
	if !hasBTRA {
		t.Error("downgrade leaked to unaffected call sites")
	}
}

func TestTrampolineModeKeepsProtection(t *testing.T) {
	cfg := defense.R2CFull()
	cfg.StackArgTrampolines = true
	p, err := Compile(boundaryModule(t), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Func(StackArgTrampolineSym("wide8"))
	if tr == nil {
		t.Fatal("no trampoline generated for wide8")
	}
	if n := len(tr.Instrs); n < 5 || tr.Instrs[n-1].Kind != isa.KRet {
		t.Fatalf("trampoline %s: %d instructions, want at least 5 ending in ret", tr.Name, n)
	}
	// wide8 keeps its protection (a nonzero post-offset is possible again).
	found := false
	for _, f := range p.Funcs {
		for _, cs := range f.CallSites {
			if cs.Callee == "wide8" && f.Name == "main" && cs.Pre > 0 {
				found = true
			}
			// The unprotected caller must have been redirected.
			if f.Name == "libwrap" && cs.Callee == "wide8" {
				t.Error("unprotected caller still calls wide8 directly")
			}
		}
	}
	if !found {
		t.Error("protected caller of wide8 lost its BTRAs under trampoline mode")
	}
	redirected := false
	for _, cs := range p.Func("libwrap").CallSites {
		if cs.Callee == StackArgTrampolineSym("wide8") {
			redirected = true
		}
	}
	if !redirected {
		t.Error("libwrap not redirected to the trampoline")
	}
	// The escaped callback stays downgraded even in trampoline mode (the
	// paper's evaluation also deactivated those cases).
	if p.Func("callback7").PostOffset != 0 {
		t.Error("escaped callback not downgraded")
	}
}

func TestTrampolineShape(t *testing.T) {
	cfg := defense.R2CFull()
	cfg.StackArgTrampolines = true
	p, err := Compile(boundaryModule(t), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Func(StackArgTrampolineSym("wide8"))
	// Must save/restore rbp, re-push both stack args, park rbp, and call.
	var pushes, loads int
	var calls int
	for i := range tr.Instrs {
		switch tr.Instrs[i].Kind {
		case isa.KPush:
			pushes++
		case isa.KLoad:
			loads++
		case isa.KCall:
			calls++
			if callee := p.Syms[tr.Instrs[i].Sym]; callee != "wide8" {
				t.Errorf("trampoline calls %q", callee)
			}
		}
	}
	if loads != 2 || calls != 1 {
		t.Errorf("trampoline shape: %d loads, %d calls (want 2, 1)\n%s",
			loads, calls, tr.Disasm(p.Syms))
	}
	if pushes < 3 { // rbp + two args
		t.Errorf("trampoline pushes = %d", pushes)
	}
}
