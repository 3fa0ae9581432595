// Package tir defines the toolchain's intermediate representation ("tiny
// IR"). It plays the role LLVM IR plays in the paper: workloads are built as
// TIR modules, and every R2C transformation happens while lowering TIR to
// the simulated ISA.
//
// The IR is deliberately small but structurally faithful to what the R2C
// passes need:
//
//   - functions with basic blocks, mutable virtual registers, and explicit
//     stack slots (Alloca) — the unit stack-slot randomization permutes;
//   - direct, indirect and tail calls — BTRA insertion happens per call
//     site, tail calls are exempt (they push no return address, Section 7.1),
//     and indirect call sites cannot coordinate post-offsets at compile time
//     (Section 5.1);
//   - globals, including function-pointer globals and "default parameter"
//     globals, the data AOCR corrupts for whole-function reuse (Section 2.3);
//   - a Protected flag per function, modelling code not compiled by R2C
//     (Section 7.4.1).
//
// All values are 64-bit words; pointers and integers share the register
// file, exactly like x86_64 general-purpose registers.
package tir

import "fmt"

// Reg is a virtual register index, local to a function. Registers are
// mutable (the IR is post-SSA, like LLVM after register allocation inputs).
type Reg int

// NoReg marks an absent register operand (e.g. a call with ignored result).
const NoReg Reg = -1

// Op enumerates instruction opcodes.
type Op int

// Instruction opcodes.
const (
	// OpConst loads an immediate: dst = imm.
	OpConst Op = iota
	// OpMov copies a register: dst = a.
	OpMov
	// OpAdd..OpGeq are binary ALU operations: dst = a <op> b.
	OpAdd
	OpSub
	OpMul
	OpDiv // unsigned division; division by zero traps the VM
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq // dst = (a == b) ? 1 : 0
	OpNeq
	OpLt // unsigned compare
	OpLeq
	OpGt
	OpGeq
	// OpLoad loads a word: dst = mem[a + off].
	OpLoad
	// OpStore stores a word: mem[a + off] = b.
	OpStore
	// OpAddrLocal takes the address of a stack slot: dst = &slot[localIndex].
	OpAddrLocal
	// OpAddrGlobal takes the address of a global: dst = &global (via GOT in
	// the PIC relocation model).
	OpAddrGlobal
	// OpAddrFunc materializes a function pointer: dst = &func.
	OpAddrFunc
	// OpCall calls Callee (direct) or the function whose address is in a
	// (indirect, when Callee == ""). Args are passed per the calling
	// convention; dst receives the result if != NoReg.
	OpCall
	// OpAlloc calls the runtime allocator: dst = malloc(a).
	OpAlloc
	// OpFree frees a heap chunk: free(a).
	OpFree
	// OpOutput appends a to the process output stream (the observable
	// behaviour differential tests compare).
	OpOutput
	// OpBr branches unconditionally to Target.
	OpBr
	// OpCondBr branches to Target if a != 0, else to Else.
	OpCondBr
	// OpRet returns (a if HasArg).
	OpRet
)

var opNames = map[Op]string{
	OpConst: "const", OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpEq: "eq", OpNeq: "neq", OpLt: "lt",
	OpLeq: "leq", OpGt: "gt", OpGeq: "geq", OpLoad: "load", OpStore: "store",
	OpAddrLocal: "addrlocal", OpAddrGlobal: "addrglobal", OpAddrFunc: "addrfunc",
	OpCall: "call", OpAlloc: "alloc", OpFree: "free", OpOutput: "output",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsBinary reports whether o is a two-operand ALU op.
func (o Op) IsBinary() bool { return o >= OpAdd && o <= OpGeq }

// IsTerminator reports whether o ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpCondBr || o == OpRet }

// Instr is one IR instruction. Operand usage depends on Op; unused fields
// are zero. This flat representation keeps the builder and the lowering
// simple and allocation-light.
type Instr struct {
	Op     Op
	Dst    Reg
	A, B   Reg
	Imm    uint64
	Off    int64  // Load/Store displacement
	Local  int    // AddrLocal slot index
	Sym    string // AddrGlobal/AddrFunc/Call target symbol
	Args   []Reg  // Call arguments
	Target int    // Br/CondBr taken block
	Else   int    // CondBr fall-through block
	HasArg bool   // Ret carries a value
	Tail   bool   // Call is a tail call (no return address pushed)
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator.
type Block struct {
	Instrs []Instr
}

// Local is a stack slot. Slots are what stack-slot randomization shuffles
// and what BTDP spill slots are interleaved with (Section 5.2).
type Local struct {
	Name string
	Size uint64 // bytes, rounded up to a word multiple at lowering
}

// Function is a TIR function.
type Function struct {
	Name    string
	NParams int
	NRegs   int
	Locals  []Local
	Blocks  []*Block

	// Protected is false for code "not compiled by R2C" (system libraries
	// in the paper). Unprotected callees overwrite post-offset BTRAs and,
	// by default, calls to them get no BTRAs at all (Section 7.4.1).
	Protected bool

	// NoReturn marks functions that never return (booby traps).
	NoReturn bool
}

// GlobalKind classifies globals for layout and for the attacker model.
type GlobalKind int

const (
	// GlobalData is plain data.
	GlobalData GlobalKind = iota
	// GlobalFuncPtr holds a function pointer (set at load time).
	GlobalFuncPtr
	// GlobalDefaultParam is a function default parameter — the kind of
	// global AOCR's attack C corrupts (Section 2.3, Figure 1).
	GlobalDefaultParam
)

func (k GlobalKind) String() string {
	switch k {
	case GlobalData:
		return "data"
	case GlobalFuncPtr:
		return "funcptr"
	case GlobalDefaultParam:
		return "defaultparam"
	}
	return "unknown"
}

// Global is a module-level variable.
type Global struct {
	Name string
	Size uint64 // bytes
	Kind GlobalKind
	// Init holds the initial words. For GlobalFuncPtr, InitFunc names the
	// function whose address the loader writes. InitFuncs, when non-empty,
	// makes the global a function-pointer table: word i receives the
	// address of InitFuncs[i]. Table interiors are contiguous structures —
	// global shuffling permutes whole globals, not struct layouts, exactly
	// the structure-layout assumption AOCR exploits (Section 2.3).
	Init      []uint64
	InitFunc  string
	InitFuncs []string
}

// Module is a complete program.
type Module struct {
	Name    string
	Funcs   []*Function
	Globals []*Global
	Entry   string // entry function name; must take 0 params
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Verify checks structural invariants of the module: unique symbol names, a
// valid entry point, terminated blocks, in-range registers/locals/blocks,
// and resolvable call/address targets. Workload generators run this before
// handing a module to the compiler.
func (m *Module) Verify() error {
	seen := map[string]bool{}
	for _, g := range m.Globals {
		if g.Name == "" {
			return fmt.Errorf("tir: unnamed global")
		}
		if seen[g.Name] {
			return fmt.Errorf("tir: duplicate symbol %q", g.Name)
		}
		seen[g.Name] = true
		if g.Size == 0 {
			return fmt.Errorf("tir: global %q has zero size", g.Name)
		}
		if uint64(len(g.Init))*8 > alignWords(g.Size)*8 {
			return fmt.Errorf("tir: global %q init larger than size", g.Name)
		}
		if g.Kind == GlobalFuncPtr && g.InitFunc == "" && len(g.InitFuncs) == 0 {
			return fmt.Errorf("tir: funcptr global %q has no InitFunc", g.Name)
		}
		if g.InitFunc != "" && m.Func(g.InitFunc) == nil {
			return fmt.Errorf("tir: global %q references unknown function %q", g.Name, g.InitFunc)
		}
		if uint64(len(g.InitFuncs))*8 > alignWords(g.Size)*8 {
			return fmt.Errorf("tir: global %q funcptr table larger than size", g.Name)
		}
		for _, fn := range g.InitFuncs {
			if m.Func(fn) == nil {
				return fmt.Errorf("tir: global %q references unknown function %q", g.Name, fn)
			}
		}
	}
	for _, f := range m.Funcs {
		if f.Name == "" {
			return fmt.Errorf("tir: unnamed function")
		}
		if seen[f.Name] {
			return fmt.Errorf("tir: duplicate symbol %q", f.Name)
		}
		seen[f.Name] = true
		if err := m.verifyFunc(f); err != nil {
			return fmt.Errorf("tir: function %q: %w", f.Name, err)
		}
	}
	if m.Entry == "" {
		return fmt.Errorf("tir: module has no entry")
	}
	e := m.Func(m.Entry)
	if e == nil {
		return fmt.Errorf("tir: entry %q not found", m.Entry)
	}
	if e.NParams != 0 {
		return fmt.Errorf("tir: entry %q must take no parameters", m.Entry)
	}
	return nil
}

func (m *Module) verifyFunc(f *Function) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	if f.NParams < 0 || f.NRegs < f.NParams {
		return fmt.Errorf("register file (%d) smaller than params (%d)", f.NRegs, f.NParams)
	}
	checkReg := func(r Reg, what string) error {
		if r < 0 || int(r) >= f.NRegs {
			return fmt.Errorf("%s register %d out of range [0,%d)", what, r, f.NRegs)
		}
		return nil
	}
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %d empty", bi)
		}
		for ii, in := range b.Instrs {
			last := ii == len(b.Instrs)-1
			if in.Op.IsTerminator() != last {
				return fmt.Errorf("block %d instr %d: terminator placement", bi, ii)
			}
			switch {
			case in.Op == OpConst:
				if err := checkReg(in.Dst, "dst"); err != nil {
					return err
				}
			case in.Op == OpMov || in.Op == OpOutput || in.Op == OpFree:
				if in.Op == OpMov {
					if err := checkReg(in.Dst, "dst"); err != nil {
						return err
					}
				}
				if err := checkReg(in.A, "src"); err != nil {
					return err
				}
			case in.Op.IsBinary():
				for _, p := range []struct {
					r Reg
					n string
				}{{in.Dst, "dst"}, {in.A, "a"}, {in.B, "b"}} {
					if err := checkReg(p.r, p.n); err != nil {
						return err
					}
				}
			case in.Op == OpLoad:
				if err := checkReg(in.Dst, "dst"); err != nil {
					return err
				}
				if err := checkReg(in.A, "addr"); err != nil {
					return err
				}
			case in.Op == OpStore:
				if err := checkReg(in.A, "addr"); err != nil {
					return err
				}
				if err := checkReg(in.B, "val"); err != nil {
					return err
				}
			case in.Op == OpAddrLocal:
				if err := checkReg(in.Dst, "dst"); err != nil {
					return err
				}
				if in.Local < 0 || in.Local >= len(f.Locals) {
					return fmt.Errorf("block %d: local %d out of range", bi, in.Local)
				}
			case in.Op == OpAddrGlobal:
				if err := checkReg(in.Dst, "dst"); err != nil {
					return err
				}
				if m.Global(in.Sym) == nil {
					return fmt.Errorf("unknown global %q", in.Sym)
				}
			case in.Op == OpAddrFunc:
				if err := checkReg(in.Dst, "dst"); err != nil {
					return err
				}
				if m.Func(in.Sym) == nil {
					return fmt.Errorf("unknown function %q", in.Sym)
				}
			case in.Op == OpAlloc:
				if err := checkReg(in.Dst, "dst"); err != nil {
					return err
				}
				if err := checkReg(in.A, "size"); err != nil {
					return err
				}
			case in.Op == OpCall:
				if in.Dst != NoReg {
					if err := checkReg(in.Dst, "dst"); err != nil {
						return err
					}
				}
				for _, a := range in.Args {
					if err := checkReg(a, "arg"); err != nil {
						return err
					}
				}
				if in.Sym != "" {
					callee := m.Func(in.Sym)
					if callee == nil {
						return fmt.Errorf("call to unknown function %q", in.Sym)
					}
					if callee.NParams != len(in.Args) {
						return fmt.Errorf("call to %q passes %d args, wants %d",
							in.Sym, len(in.Args), callee.NParams)
					}
				} else if err := checkReg(in.A, "callee"); err != nil {
					return err
				}
			case in.Op == OpBr:
				if in.Target < 0 || in.Target >= len(f.Blocks) {
					return fmt.Errorf("br target %d out of range", in.Target)
				}
			case in.Op == OpCondBr:
				if err := checkReg(in.A, "cond"); err != nil {
					return err
				}
				if in.Target < 0 || in.Target >= len(f.Blocks) ||
					in.Else < 0 || in.Else >= len(f.Blocks) {
					return fmt.Errorf("condbr targets out of range")
				}
			case in.Op == OpRet:
				if in.HasArg {
					if err := checkReg(in.A, "ret"); err != nil {
						return err
					}
				}
			default:
				return fmt.Errorf("block %d instr %d: unknown op %v", bi, ii, in.Op)
			}
		}
	}
	return nil
}

// Stats summarizes a module for reports.
type ModuleStats struct {
	Funcs       int
	Blocks      int
	Instrs      int
	CallSites   int
	Globals     int
	GlobalBytes uint64
}

// Stats computes module statistics.
func (m *Module) Stats() ModuleStats {
	var s ModuleStats
	s.Funcs = len(m.Funcs)
	s.Globals = len(m.Globals)
	for _, g := range m.Globals {
		s.GlobalBytes += g.Size
	}
	for _, f := range m.Funcs {
		s.Blocks += len(f.Blocks)
		for _, b := range f.Blocks {
			s.Instrs += len(b.Instrs)
			for _, in := range b.Instrs {
				if in.Op == OpCall {
					s.CallSites++
				}
			}
		}
	}
	return s
}

func alignWords(bytes uint64) uint64 { return (bytes + 7) / 8 }
