package tir

import "fmt"

// ModuleBuilder constructs a Module incrementally. Workload generators use
// it; it panics on misuse (a generator bug), while Module.Verify reports
// structural errors as values for everything built programmatically.
type ModuleBuilder struct {
	m *Module
}

// NewModule starts a module with the given name.
func NewModule(name string) *ModuleBuilder {
	return &ModuleBuilder{m: &Module{Name: name}}
}

// AddGlobal appends a data global of size bytes with optional initial words.
func (mb *ModuleBuilder) AddGlobal(name string, size uint64, init ...uint64) *Global {
	g := &Global{Name: name, Size: size, Kind: GlobalData, Init: init}
	mb.m.Globals = append(mb.m.Globals, g)
	return g
}

// AddDefaultParam appends a default-parameter global holding one word.
func (mb *ModuleBuilder) AddDefaultParam(name string, value uint64) *Global {
	g := &Global{Name: name, Size: 8, Kind: GlobalDefaultParam, Init: []uint64{value}}
	mb.m.Globals = append(mb.m.Globals, g)
	return g
}

// AddFuncPtrTable appends a contiguous function-pointer table global; the
// loader writes the address of targets[i] into word i. The table is a
// single global, so its interior layout survives global shuffling — the
// structure-layout property AOCR relies on.
func (mb *ModuleBuilder) AddFuncPtrTable(name string, targets ...string) *Global {
	g := &Global{Name: name, Size: uint64(len(targets)) * 8, Kind: GlobalFuncPtr, InitFuncs: targets}
	mb.m.Globals = append(mb.m.Globals, g)
	return g
}

// AddFuncPtr appends a function-pointer global initialized by the loader to
// the address of target.
func (mb *ModuleBuilder) AddFuncPtr(name, target string) *Global {
	g := &Global{Name: name, Size: 8, Kind: GlobalFuncPtr, InitFunc: target}
	mb.m.Globals = append(mb.m.Globals, g)
	return g
}

// NewFunc starts a protected function with nParams parameters. Parameters
// occupy registers 0..nParams-1 on entry.
func (mb *ModuleBuilder) NewFunc(name string, nParams int) *FuncBuilder {
	f := &Function{Name: name, NParams: nParams, NRegs: nParams, Protected: true}
	mb.m.Funcs = append(mb.m.Funcs, f)
	fb := &FuncBuilder{m: mb.m, f: f}
	fb.NewBlock() // entry block
	return fb
}

// SetEntry declares the entry function.
func (mb *ModuleBuilder) SetEntry(name string) { mb.m.Entry = name }

// Build finalizes and verifies the module.
func (mb *ModuleBuilder) Build() (*Module, error) {
	if err := mb.m.Verify(); err != nil {
		return nil, err
	}
	return mb.m, nil
}

// MustBuild finalizes the module and panics on verification failure. For
// statically-shaped test/workload modules where failure is a programming
// error.
func (mb *ModuleBuilder) MustBuild() *Module {
	m, err := mb.Build()
	if err != nil {
		panic(fmt.Sprintf("tir: MustBuild: %v", err))
	}
	return m
}

// FuncBuilder constructs one function. It keeps a current block; emit
// methods append to it.
type FuncBuilder struct {
	m   *Module
	f   *Function
	cur int
}

// Unprotected marks the function as not compiled by R2C (Section 7.4.1).
func (fb *FuncBuilder) Unprotected() *FuncBuilder {
	fb.f.Protected = false
	return fb
}

// NewReg allocates a fresh virtual register.
func (fb *FuncBuilder) NewReg() Reg {
	r := Reg(fb.f.NRegs)
	fb.f.NRegs++
	return r
}

// Param returns the register holding parameter i.
func (fb *FuncBuilder) Param(i int) Reg {
	if i < 0 || i >= fb.f.NParams {
		panic(fmt.Sprintf("tir: param %d of %d", i, fb.f.NParams))
	}
	return Reg(i)
}

// NewLocal declares a stack slot of size bytes and returns its index.
func (fb *FuncBuilder) NewLocal(name string, size uint64) int {
	fb.f.Locals = append(fb.f.Locals, Local{Name: name, Size: size})
	return len(fb.f.Locals) - 1
}

// NewBlock appends a new basic block and makes it current. The block
// starts with room for 16 instructions, so building a typical block (the
// SPEC modules' are mostly 17–32 long) takes one growth instead of five.
func (fb *FuncBuilder) NewBlock() int {
	fb.f.Blocks = append(fb.f.Blocks, &Block{Instrs: make([]Instr, 0, 16)})
	fb.cur = len(fb.f.Blocks) - 1
	return fb.cur
}

// Block returns the index of the current block.
func (fb *FuncBuilder) Block() int { return fb.cur }

// SetBlock switches the current block.
func (fb *FuncBuilder) SetBlock(b int) {
	if b < 0 || b >= len(fb.f.Blocks) {
		panic("tir: SetBlock out of range")
	}
	fb.cur = b
}

func (fb *FuncBuilder) emit(in Instr) {
	b := fb.f.Blocks[fb.cur]
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Op.IsTerminator() {
		panic(fmt.Sprintf("tir: emit %v after terminator in %s block %d", in.Op, fb.f.Name, fb.cur))
	}
	b.Instrs = append(b.Instrs, in)
}

// Const emits dst = imm into a fresh register.
func (fb *FuncBuilder) Const(imm uint64) Reg {
	dst := fb.NewReg()
	fb.emit(Instr{Op: OpConst, Dst: dst, Imm: imm})
	return dst
}

// Mov emits dst = src into dst.
func (fb *FuncBuilder) Mov(dst, src Reg) {
	fb.emit(Instr{Op: OpMov, Dst: dst, A: src})
}

// Bin emits dst = a <op> b into a fresh register.
func (fb *FuncBuilder) Bin(op Op, a, b Reg) Reg {
	if !op.IsBinary() {
		panic("tir: Bin with non-binary op")
	}
	dst := fb.NewReg()
	fb.emit(Instr{Op: op, Dst: dst, A: a, B: b})
	return dst
}

// BinTo emits dst = a <op> b into an existing register (for loop counters).
func (fb *FuncBuilder) BinTo(dst Reg, op Op, a, b Reg) {
	if !op.IsBinary() {
		panic("tir: BinTo with non-binary op")
	}
	fb.emit(Instr{Op: op, Dst: dst, A: a, B: b})
}

// Load emits dst = mem[addr+off].
func (fb *FuncBuilder) Load(addr Reg, off int64) Reg {
	dst := fb.NewReg()
	fb.emit(Instr{Op: OpLoad, Dst: dst, A: addr, Off: off})
	return dst
}

// Store emits mem[addr+off] = val.
func (fb *FuncBuilder) Store(addr Reg, off int64, val Reg) {
	fb.emit(Instr{Op: OpStore, A: addr, Off: off, B: val})
}

// AddrLocal emits dst = &local.
func (fb *FuncBuilder) AddrLocal(local int) Reg {
	dst := fb.NewReg()
	fb.emit(Instr{Op: OpAddrLocal, Dst: dst, Local: local})
	return dst
}

// AddrGlobal emits dst = &global.
func (fb *FuncBuilder) AddrGlobal(name string) Reg {
	dst := fb.NewReg()
	fb.emit(Instr{Op: OpAddrGlobal, Dst: dst, Sym: name})
	return dst
}

// AddrFunc emits dst = &func.
func (fb *FuncBuilder) AddrFunc(name string) Reg {
	dst := fb.NewReg()
	fb.emit(Instr{Op: OpAddrFunc, Dst: dst, Sym: name})
	return dst
}

// Call emits a direct call and returns the result register.
func (fb *FuncBuilder) Call(callee string, args ...Reg) Reg {
	dst := fb.NewReg()
	fb.emit(Instr{Op: OpCall, Dst: dst, Sym: callee, Args: args})
	return dst
}

// CallVoid emits a direct call discarding the result.
func (fb *FuncBuilder) CallVoid(callee string, args ...Reg) {
	fb.emit(Instr{Op: OpCall, Dst: NoReg, Sym: callee, Args: args})
}

// TailCall emits a direct tail call (no BTRAs: no return address is pushed).
func (fb *FuncBuilder) TailCall(callee string, args ...Reg) {
	fb.emit(Instr{Op: OpCall, Dst: NoReg, Sym: callee, Args: args, Tail: true})
	fb.emit(Instr{Op: OpRet})
}

// CallIndirect emits a call through a function pointer register.
func (fb *FuncBuilder) CallIndirect(fn Reg, args ...Reg) Reg {
	dst := fb.NewReg()
	fb.emit(Instr{Op: OpCall, Dst: dst, A: fn, Args: args})
	return dst
}

// Alloc emits dst = malloc(size).
func (fb *FuncBuilder) Alloc(size Reg) Reg {
	dst := fb.NewReg()
	fb.emit(Instr{Op: OpAlloc, Dst: dst, A: size})
	return dst
}

// Free emits free(addr).
func (fb *FuncBuilder) Free(addr Reg) {
	fb.emit(Instr{Op: OpFree, A: addr})
}

// Output emits output(v).
func (fb *FuncBuilder) Output(v Reg) {
	fb.emit(Instr{Op: OpOutput, A: v})
}

// Br emits an unconditional branch.
func (fb *FuncBuilder) Br(target int) {
	fb.emit(Instr{Op: OpBr, Target: target})
}

// CondBr emits a conditional branch.
func (fb *FuncBuilder) CondBr(cond Reg, then, els int) {
	fb.emit(Instr{Op: OpCondBr, A: cond, Target: then, Else: els})
}

// Ret emits a return with a value.
func (fb *FuncBuilder) Ret(v Reg) {
	fb.emit(Instr{Op: OpRet, A: v, HasArg: true})
}

// RetVoid emits a bare return.
func (fb *FuncBuilder) RetVoid() {
	fb.emit(Instr{Op: OpRet})
}
