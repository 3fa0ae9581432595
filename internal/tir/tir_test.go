package tir

import (
	"strings"
	"testing"
)

// buildAddModule builds a module with main calling add(2,3) and returning it.
func buildAddModule(t *testing.T) *Module {
	t.Helper()
	mb := NewModule("addtest")

	add := mb.NewFunc("add", 2)
	add.Ret(add.Bin(OpAdd, add.Param(0), add.Param(1)))

	main := mb.NewFunc("main", 0)
	a := main.Const(2)
	b := main.Const(3)
	sum := main.Call("add", a, b)
	main.Output(sum)
	main.RetVoid()

	mb.SetEntry("main")
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuilderProducesValidModule(t *testing.T) {
	m := buildAddModule(t)
	if m.Func("add") == nil || m.Func("main") == nil {
		t.Fatal("functions missing")
	}
	st := m.Stats()
	if st.Funcs != 2 || st.CallSites != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVerifyRejectsMissingEntry(t *testing.T) {
	mb := NewModule("bad")
	f := mb.NewFunc("f", 0)
	f.RetVoid()
	if _, err := mb.Build(); err == nil {
		t.Fatal("module without entry verified")
	}
}

func TestVerifyRejectsEntryWithParams(t *testing.T) {
	mb := NewModule("bad")
	f := mb.NewFunc("main", 2)
	f.RetVoid()
	mb.SetEntry("main")
	if _, err := mb.Build(); err == nil {
		t.Fatal("entry with params verified")
	}
}

func TestVerifyRejectsUnterminatedBlock(t *testing.T) {
	m := &Module{
		Name:  "bad",
		Entry: "main",
		Funcs: []*Function{{
			Name: "main", NRegs: 1, Protected: true,
			Blocks: []*Block{{Instrs: []Instr{{Op: OpConst, Dst: 0, Imm: 1}}}},
		}},
	}
	if err := m.Verify(); err == nil {
		t.Fatal("unterminated block verified")
	}
}

func TestVerifyRejectsMidBlockTerminator(t *testing.T) {
	m := &Module{
		Name:  "bad",
		Entry: "main",
		Funcs: []*Function{{
			Name: "main", NRegs: 1, Protected: true,
			Blocks: []*Block{{Instrs: []Instr{
				{Op: OpRet},
				{Op: OpConst, Dst: 0, Imm: 1},
			}}},
		}},
	}
	if err := m.Verify(); err == nil {
		t.Fatal("mid-block terminator verified")
	}
}

func TestVerifyRejectsBadRegister(t *testing.T) {
	m := &Module{
		Name:  "bad",
		Entry: "main",
		Funcs: []*Function{{
			Name: "main", NRegs: 1, Protected: true,
			Blocks: []*Block{{Instrs: []Instr{
				{Op: OpMov, Dst: 5, A: 0},
				{Op: OpRet},
			}}},
		}},
	}
	if err := m.Verify(); err == nil {
		t.Fatal("out-of-range register verified")
	}
}

func TestVerifyRejectsUnknownCallee(t *testing.T) {
	m := &Module{
		Name:  "bad",
		Entry: "main",
		Funcs: []*Function{{
			Name: "main", NRegs: 1, Protected: true,
			Blocks: []*Block{{Instrs: []Instr{
				{Op: OpCall, Dst: NoReg, Sym: "ghost"},
				{Op: OpRet},
			}}},
		}},
	}
	if err := m.Verify(); err == nil {
		t.Fatal("call to unknown function verified")
	}
}

func TestVerifyRejectsArityMismatch(t *testing.T) {
	mb := NewModule("bad")
	callee := mb.NewFunc("callee", 2)
	callee.RetVoid()
	main := mb.NewFunc("main", 0)
	x := main.Const(1)
	main.CallVoid("callee", x) // one arg, callee wants two
	main.RetVoid()
	mb.SetEntry("main")
	if _, err := mb.Build(); err == nil {
		t.Fatal("arity mismatch verified")
	}
}

func TestVerifyRejectsDuplicateSymbols(t *testing.T) {
	mb := NewModule("bad")
	f1 := mb.NewFunc("f", 0)
	f1.RetVoid()
	f2 := mb.NewFunc("f", 0)
	f2.RetVoid()
	mb.SetEntry("f")
	if _, err := mb.Build(); err == nil {
		t.Fatal("duplicate symbol verified")
	}
}

func TestVerifyRejectsBadBranchTarget(t *testing.T) {
	m := &Module{
		Name:  "bad",
		Entry: "main",
		Funcs: []*Function{{
			Name: "main", Protected: true,
			Blocks: []*Block{{Instrs: []Instr{{Op: OpBr, Target: 9}}}},
		}},
	}
	if err := m.Verify(); err == nil {
		t.Fatal("bad branch target verified")
	}
}

func TestVerifyRejectsFuncPtrWithoutInit(t *testing.T) {
	mb := NewModule("bad")
	mb.m.Globals = append(mb.m.Globals, &Global{Name: "fp", Size: 8, Kind: GlobalFuncPtr})
	f := mb.NewFunc("main", 0)
	f.RetVoid()
	mb.SetEntry("main")
	if _, err := mb.Build(); err == nil {
		t.Fatal("funcptr without InitFunc verified")
	}
}

func TestEmitAfterTerminatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mb := NewModule("bad")
	f := mb.NewFunc("f", 0)
	f.RetVoid()
	f.RetVoid()
}

func TestControlFlowBuilder(t *testing.T) {
	mb := NewModule("loop")
	f := mb.NewFunc("main", 0)
	i := f.Const(0)
	n := f.Const(10)
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	f.SetBlock(0)
	f.Br(head)
	f.SetBlock(head)
	cond := f.Bin(OpLt, i, n)
	f.CondBr(cond, body, exit)
	f.SetBlock(body)
	one := f.Const(1)
	f.BinTo(i, OpAdd, i, one)
	f.Br(head)
	f.SetBlock(exit)
	f.Output(i)
	f.RetVoid()
	mb.SetEntry("main")
	if _, err := mb.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalKinds(t *testing.T) {
	mb := NewModule("globals")
	mb.AddGlobal("table", 64, 1, 2, 3)
	mb.AddDefaultParam("default_mode", 7)
	f := mb.NewFunc("handler", 1)
	f.RetVoid()
	mb.AddFuncPtr("handler_ptr", "handler")
	main := mb.NewFunc("main", 0)
	main.RetVoid()
	mb.SetEntry("main")
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g := m.Global("default_mode"); g == nil || g.Kind != GlobalDefaultParam {
		t.Fatal("default param global wrong")
	}
	if g := m.Global("handler_ptr"); g == nil || g.InitFunc != "handler" {
		t.Fatal("funcptr global wrong")
	}
}

func TestStringDump(t *testing.T) {
	m := buildAddModule(t)
	s := m.String()
	for _, want := range []string{"module addtest", "func add", "call add", "ret r2", "output"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump missing %q:\n%s", want, s)
		}
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpConst, Dst: 1, Imm: 255}, "r1 = const 0xff"},
		{Instr{Op: OpLoad, Dst: 2, A: 3, Off: -8}, "r2 = load [r3-8]"},
		{Instr{Op: OpStore, A: 1, Off: 16, B: 2}, "store [r1+16], r2"},
		{Instr{Op: OpCall, Dst: NoReg, A: 4, Args: []Reg{1}}, "callind r4(r1)"},
		{Instr{Op: OpCall, Dst: NoReg, Sym: "f", Tail: true}, "tailcall f()"},
		{Instr{Op: OpCondBr, A: 1, Target: 2, Else: 3}, "condbr r1, b2, b3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTailCallEmitsRet(t *testing.T) {
	mb := NewModule("tail")
	g := mb.NewFunc("g", 0)
	g.RetVoid()
	f := mb.NewFunc("main", 0)
	f.TailCall("g")
	mb.SetEntry("main")
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	blocks := m.Func("main").Blocks
	last := blocks[0].Instrs
	if len(last) != 2 || !last[0].Tail || last[1].Op != OpRet {
		t.Fatalf("tail call lowering wrong: %v", last)
	}
}
