// Package codegen lowers TIR modules to the simulated ISA and is where every
// per-function R2C transformation happens: BTRA call-site instrumentation
// (push and AVX2 setups), BTDP spill instrumentation, NOP insertion, prolog
// trap insertion, stack-slot randomization, register-allocation
// randomization, and offset-invariant addressing. Function and global
// shuffling happen later, in the linker (package image).
package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"r2c/internal/defense"
	"r2c/internal/isa"
	"r2c/internal/tir"
)

// AddrWord is a link-time-resolved 64-bit datum: either the address of a
// symbol (plus offset) or the return address of a call site. AVX2 BTRA
// arrays are sequences of AddrWords (Section 5.1.2: "a call-site specific
// array in the data section, prepared at compile time"). Like isa.Instr it
// holds no pointer: Sym indexes the program's symbol table.
type AddrWord struct {
	Off        int64
	Sym        isa.Sym
	CallSiteID int32
	RetAddr    bool
	// BTRA marks booby-trap entries, for introspection and the runtime's
	// reroll support; invisible in memory.
	BTRA bool
}

// DataBlob is a code-generator-emitted data object (e.g. an AVX2 BTRA
// array) the linker must place in the data section.
type DataBlob struct {
	Name  string
	Words []AddrWord
}

// SlotKind classifies a stack-frame slot.
type SlotKind int

const (
	// SlotLocal is a TIR local (alloca).
	SlotLocal SlotKind = iota
	// SlotSpill holds a spilled virtual register.
	SlotSpill
	// SlotBTDP holds a booby-trapped data pointer written by the prologue.
	SlotBTDP
	// SlotPad is alignment padding.
	SlotPad
)

func (k SlotKind) String() string {
	switch k {
	case SlotLocal:
		return "local"
	case SlotSpill:
		return "spill"
	case SlotBTDP:
		return "btdp"
	case SlotPad:
		return "pad"
	}
	return "?"
}

// Slot describes one frame slot in the final (possibly randomized) layout.
// Offsets are relative to the post-prologue stack pointer.
type Slot struct {
	Kind   SlotKind
	Offset int64
	Size   uint64
}

// CallSite records the toolchain's ground truth about one lowered call
// site. The attack framework uses it as the oracle for judging attacks
// (e.g. "did the attacker pick the real RA or a BTRA?"); the VM uses the
// call-site ID for call counting.
type CallSite struct {
	ID     int
	Caller string
	Callee string // "" for indirect
	Tail   bool

	// Pre and Post are the BTRA counts before/above and after/below the
	// return address (after alignment padding). Zero when uninstrumented.
	Pre, Post int
	// BTRAs lists the booby-trap targets in stack order, topmost first;
	// entry Pre is where the RA sits (not included here).
	BTRAs []AddrWord
	// NumNOPs is the number of NOPs inserted before the site.
	NumNOPs int
	// ArraySym names the AVX2 setup array blob ("" for push setup).
	ArraySym string
	// StackArgs is the number of arguments passed on the stack.
	StackArgs int
	// CallInstrIndex is the index of the KCall/KCallInd in the function's
	// instruction slice.
	CallInstrIndex int
}

// Func is one compiled function.
type Func struct {
	Name      string
	Instrs    []isa.Instr
	Protected bool
	BoobyTrap bool
	Stub      bool

	// PostOffset is the callee-chosen number of BTRA words protected below
	// the return address (Section 5.1).
	PostOffset int
	// FrameSize is the byte size of the local frame (below saved regs).
	FrameSize int64
	// Slots is the final frame layout.
	Slots []Slot
	// CalleeSaved lists the callee-saved registers the prologue pushes.
	CalleeSaved []isa.Reg
	// RegAllocOrder is the allocation-pool order register allocation used —
	// the shuffled order under RandomizeRegAlloc, the fixed pool order
	// otherwise. The diversity auditor measures register-allocation
	// divergence from it; it is toolchain metadata, invisible at runtime.
	RegAllocOrder []isa.Reg
	// NumPrologTraps is the count of trap instructions hidden in the
	// prolog (Section 4.3).
	NumPrologTraps int
	// NumBTDPs is the number of BTDP slots the prologue populates.
	NumBTDPs int
	// CallSites lists the function's call sites in emission order.
	CallSites []CallSite
	// NumStackParams is the number of parameters received on the stack.
	// Without OIA the callee reads them rsp-relative (the frame pointer is
	// omitted, as -O3 code does); under OIA it reads them through the rbp
	// the caller parked at the first stack argument (Section 5.1.1).
	NumStackParams int
	// BlockStarts lists the sorted instruction indices that begin a basic
	// block in the lowered body (entry, branch targets, fall-throughs after
	// terminators). Toolchain metadata for the VM's predecoded fast path;
	// invisible at runtime.
	BlockStarts []int
}

// BlockBoundaries computes the sorted basic-block leader indices of an
// instruction sequence: index 0, every intra-sequence branch target, and
// the instruction after every block terminator.
func BlockBoundaries(instrs []isa.Instr) []int {
	if len(instrs) == 0 {
		return nil
	}
	leader := make([]bool, len(instrs))
	leader[0] = true
	n := 1
	mark := func(i int) {
		if !leader[i] {
			leader[i] = true
			n++
		}
	}
	for i := range instrs {
		in := &instrs[i]
		if in.EndsBlock() && i+1 < len(instrs) {
			mark(i + 1)
		}
		switch in.Kind {
		case isa.KJmp, isa.KJz, isa.KJnz:
			if t := int(in.LocalTarget); t >= 0 && t < len(instrs) {
				mark(t)
			}
		}
	}
	out := make([]int, 0, n)
	for i, l := range leader {
		if l {
			out = append(out, i)
		}
	}
	return out
}

// Disasm renders the function's instructions with indices, reading symbol
// names from syms, the table of the program f belongs to.
func (f *Func) Disasm(syms []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:\n", f.Name)
	for i := range f.Instrs {
		fmt.Fprintf(&sb, "  %3d: %s\n", i, f.Instrs[i].Format(syms))
	}
	return sb.String()
}

// Program is a fully lowered module, ready for linking.
type Program struct {
	Module *tir.Module
	Config defense.Config
	Seed   uint64

	// Funcs holds the module's functions in source order (the linker
	// shuffles). Includes runtime stubs and, when BTRAs are enabled, the
	// booby-trap functions.
	Funcs []*Func
	// Blobs holds codegen-emitted data (AVX2 BTRA arrays).
	Blobs []*DataBlob
	// NumCallSites is the total number of call sites (IDs are dense).
	NumCallSites int

	// Syms is the program's symbol table: every isa.Instr.Sym and
	// AddrWord.Sym in the program indexes it, and Syms[0] is "" (isa.NoSym).
	// Compile interns each name as it lowers a reference to it; the table
	// belongs to the program, so it is freed with it.
	Syms   []string
	symIDs map[string]isa.Sym
}

// Intern returns name's index in Syms, appending name if it is new. Compile
// interns every name it refers to; a caller that rewrites a function body
// after Compile interns its operands' names the same way, before Link.
func (p *Program) Intern(name string) isa.Sym {
	if id, ok := p.symIDs[name]; ok {
		return id
	}
	id := isa.Sym(len(p.Syms))
	p.Syms = append(p.Syms, name)
	p.symIDs[name] = id
	return id
}

// Func returns the compiled function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Stub names for the simulated unprotected runtime (the paper compiles
// benchmarks against the unprotected system glibc, Section 6.2; calls into
// these are the "calls to unprotected code" of Section 7.4.1).
const (
	StubMalloc = "__rt_malloc"
	StubFree   = "__rt_free"
	StubOutput = "__rt_output"
	StubExit   = "__rt_exit"
)

// BTDP data-section symbols. The runtime constructor fills them at load
// time (Section 5.2).
const (
	// SymBTDPArrayPtr is the single heap pointer to the BTDP array
	// (hardened layout, Figure 5 right).
	SymBTDPArrayPtr = "__btdp_arrptr"
	// SymBTDPArray is the in-data-section array of the naive ablation
	// (Figure 5 left).
	SymBTDPArray = "__btdp_array"
	// SymBTDPDecoyPrefix prefixes the decoy BTDPs placed in the data
	// section ("these additional BTDPs never occur on the stack").
	SymBTDPDecoyPrefix = "__btdp_decoy"
)

// BoobyTrapSym returns the symbol name of booby-trap function i. Names in
// the shared pool come from its table: the BTRA pickers ask for one per
// booby-trap target.
func BoobyTrapSym(i int) string {
	if i >= 0 && i < len(sharedTraps) {
		return sharedTraps[i].Name
	}
	return trapSym(i)
}

func trapSym(i int) string { return "__bt" + strconv.Itoa(i) }

// TrampolineSym returns the CPH trampoline symbol for a function (Readactor
// baseline).
func TrampolineSym(fn string) string { return "__tramp_" + fn }

// ArraySym returns the AVX2 BTRA array symbol for a call site.
func ArraySym(callSiteID int) string { return "__btra_arr_cs" + strconv.Itoa(callSiteID) }
