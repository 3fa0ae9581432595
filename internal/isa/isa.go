// Package isa defines the simulated machine's instruction set — the target
// the code generator lowers TIR to and the language the VM executes.
//
// The machine is an idealized x86_64: sixteen 64-bit general purpose
// registers (RSP is the stack pointer, RBP the frame pointer), 256-bit
// vector registers for the AVX2 BTRA setup sequence (Section 5.1.2), x86
// push/call/ret stack semantics (CALL decrements RSP by 8 and stores the
// return address before transferring control — the property the BTRA setup
// exploits in step 3 of Figure 3), and byte-addressed instructions with
// realistic encoded sizes so that code layout, NOP/trap insertion, and the
// instruction-cache model are all meaningful.
//
// Instructions are kept as structured values rather than encoded bytes; the
// program image assigns each instruction an address and a size, and maps the
// covering text pages execute-only. Reading text therefore faults exactly as
// it would on a machine with execute-only memory, while fetching decodes via
// the image's instruction table.
package isa

import "fmt"

// Reg names a general-purpose register.
type Reg int8

// General-purpose registers (x86_64 names).
const (
	RAX Reg = iota
	RBX
	RCX
	RDX
	RSI
	RDI
	RBP
	RSP
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	// NumRegs is the size of the GPR file.
	NumRegs

	// NoGPR marks an absent register operand.
	NoGPR Reg = -1
)

var regNames = [...]string{
	"rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

func (r Reg) String() string {
	if r >= 0 && int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", int8(r))
}

// VReg names a 256-bit vector register (ymm0..ymm15).
type VReg int8

func (v VReg) String() string { return fmt.Sprintf("ymm%d", int8(v)) }

// ArgRegs are the integer argument registers in order, per the System V
// AMD64 ABI. Arguments beyond the sixth go on the stack above the return
// address — the case offset-invariant addressing exists for (Section 5.1.1).
var ArgRegs = []Reg{RDI, RSI, RDX, RCX, R8, R9}

// AluOp is an arithmetic/logic suboperation.
type AluOp int8

// ALU suboperations.
const (
	AluAdd AluOp = iota
	AluSub
	AluMul
	AluDiv // unsigned; divide by zero raises a machine trap
	AluRem
	AluAnd
	AluOr
	AluXor
	AluShl
	AluShr
)

var aluNames = [...]string{"add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr"}

func (a AluOp) String() string {
	if int(a) < len(aluNames) {
		return aluNames[a]
	}
	return fmt.Sprintf("alu?%d", int8(a))
}

// CmpOp is a comparison suboperation for Set instructions.
type CmpOp int8

// Comparison suboperations (unsigned).
const (
	CmpEq CmpOp = iota
	CmpNeq
	CmpLt
	CmpLeq
	CmpGt
	CmpGeq
)

var cmpNames = [...]string{"eq", "neq", "lt", "leq", "gt", "geq"}

func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp?%d", int8(c))
}

// Kind is the instruction opcode.
type Kind int8

// Instruction kinds.
const (
	// KMovImm: Dst = Imm.
	KMovImm Kind = iota
	// KMovReg: Dst = Src.
	KMovReg
	// KLoad: Dst = mem64[Base + Disp].
	KLoad
	// KStore: mem64[Base + Disp] = Src.
	KStore
	// KLea: Dst = Base + Disp.
	KLea
	// KAlu: Dst = Dst <AluOp> Src.
	KAlu
	// KAluImm: Dst = Dst <AluOp> Imm.
	KAluImm
	// KSet: Dst = (A <CmpOp> B) ? 1 : 0.
	KSet
	// KPush: mem64[RSP-8] = Src; RSP -= 8.
	KPush
	// KPushImm: mem64[RSP-8] = Imm; RSP -= 8. The BTRA push setup uses this
	// (the immediate is resolved from the symbolic Target at link time; on
	// real hardware it is a push from the GOT or a pair of push imm32).
	KPushImm
	// KPop: Dst = mem64[RSP]; RSP += 8.
	KPop
	// KCall: push return address, jump to Target. Implicitly performs the
	// two operations of x86 call: write RA at the new RSP, then transfer.
	KCall
	// KCallInd: like KCall but the target address is in Src.
	KCallInd
	// KRet: pop return address into PC.
	KRet
	// KJmp: PC = Target.
	KJmp
	// KJz: if Src == 0 then PC = Target.
	KJz
	// KJnz: if Src != 0 then PC = Target.
	KJnz
	// KNop: no operation (NOP insertion at call sites, Section 4.3).
	KNop
	// KTrap: booby trap / int3. Executing one means an attack (or a bug)
	// redirected control flow into a trap; the VM raises a TrapEvent.
	KTrap
	// KVLoad: VDst = mem256[Base + Disp] (vmovdqu-style, unaligned ok).
	KVLoad
	// KVStore: mem256[Base + Disp] = VSrc (vmovdqu-style).
	KVStore
	// KVStoreA: aligned store; the effective address must be 16-byte
	// aligned or the machine faults (the crash the paper's stack-alignment
	// padding prevents, Section 5.1).
	KVStoreA
	// KVZeroUpper: clears upper vector state. Omitting it after the AVX2
	// BTRA sequence costs heavily (Section 5.1.2); the VM's cost model
	// charges an SSE/AVX transition penalty to calls executed in dirty
	// vector state.
	KVZeroUpper
	// KSys: runtime service (allocator, output, exit). Runtime stub
	// functions — the simulated unprotected libc — wrap these.
	KSys
	// KHalt: stop the machine (end of _start).
	KHalt

	// KindCount is the number of instruction kinds, for dense per-kind
	// tables (predecode dispatch, class counters).
	KindCount = int(KHalt) + 1
)

var kindNames = [...]string{
	"movimm", "mov", "load", "store", "lea", "alu", "aluimm", "set",
	"push", "pushimm", "pop", "call", "callind", "ret", "jmp", "jz", "jnz",
	"nop", "trap", "vload", "vstore", "vstorea", "vzeroupper", "sys", "halt",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind?%d", int8(k))
}

// Sys enumerates runtime services.
type Sys int8

// Runtime service codes.
const (
	// SysAlloc: RAX = malloc(RDI).
	SysAlloc Sys = iota
	// SysFree: free(RDI).
	SysFree
	// SysOutput: append RDI to the program output stream.
	SysOutput
	// SysExit: terminate the program with status RDI.
	SysExit
	// SysProtect: mprotect(RDI=addr, RSI=len, RDX=perm). The BTDP
	// constructor uses it to revoke access from guard pages.
	SysProtect
)

var sysNames = [...]string{"alloc", "free", "output", "exit", "protect"}

func (s Sys) String() string {
	if int(s) < len(sysNames) {
		return sysNames[s]
	}
	return fmt.Sprintf("sys?%d", int8(s))
}

// Sym is a pre-link symbol reference: an index into the symbol table of the
// program the instruction belongs to (codegen.Program.Syms). NoSym means
// the operand names no symbol. Referring to symbols by index keeps Instr
// free of pointers, so the garbage collector never scans an image's code.
type Sym uint32

// NoSym is the absent symbol reference; index 0 of every table is "".
const NoSym Sym = 0

// Name returns s's entry in syms, the table of its program, or "sym#N"
// when s lies outside it.
func (s Sym) Name(syms []string) string {
	if int(s) < len(syms) {
		return syms[s]
	}
	return fmt.Sprintf("sym#%d", uint32(s))
}

// Instr is one machine instruction. Before linking, control-transfer and
// address-bearing instructions carry symbolic targets (Sym / LocalTarget);
// the linker resolves them into Target/Imm absolute addresses. Instr holds
// no pointer, and the byte-sized fields (including the two flags) trail the
// wider ones, so the struct packs into 64 bytes with seven to spare.
type Instr struct {
	Imm  uint64
	Disp int64

	// Target is an absolute code/data address after linking.
	Target uint64
	// SymOff is added to the resolved symbol address.
	SymOff int64
	// Sym is a pre-link symbol reference (NoSym when absent). For KCall it
	// is the callee; for KPushImm/KMovImm it names the address operand; for
	// KVLoad it may name a data symbol.
	Sym Sym
	// LocalTarget is a pre-link intra-function instruction index for jumps
	// (-1 when absent).
	LocalTarget int32
	// CallSiteID links RetAddr immediates and the KCall they belong to.
	CallSiteID int32

	Kind Kind
	Alu  AluOp
	Cmp  CmpOp
	Sys  Sys

	Dst  Reg
	Src  Reg
	A, B Reg
	Base Reg

	VDst VReg
	VSrc VReg

	// RetAddr marks an immediate that must resolve to "address of the
	// instruction after call site CallSiteID" (the pre-pushed return
	// address of the BTRA setup, and the RA entry of the AVX2 array).
	RetAddr bool
	// BTRA marks a pushed/stored immediate as a booby-trapped return
	// address. The flag is toolchain metadata only — it is never visible in
	// memory, where BTRAs are indistinguishable from real return addresses.
	BTRA bool
}

// EncodedSize returns the instruction's size in bytes in the simulated
// encoding. Sizes approximate x86_64 and feed address assignment and the
// i-cache model; what matters is their relative magnitude (a push-based
// BTRA setup occupies ~50% more code bytes than the AVX2 sequence).
func (in *Instr) EncodedSize() int {
	switch in.Kind {
	case KMovImm:
		return 10 // mov r64, imm64
	case KMovReg:
		return 3
	case KLoad, KStore:
		return 4
	case KLea:
		return 4
	case KAlu:
		return 3
	case KAluImm:
		return 4
	case KSet:
		return 7 // cmp + setcc + movzx
	case KPush:
		return 2
	case KPushImm:
		return 6 // push m64 via GOT / push imm32 pair
	case KPop:
		return 2
	case KCall:
		return 5 // call rel32
	case KCallInd:
		return 3
	case KRet:
		return 1
	case KJmp:
		return 5
	case KJz, KJnz:
		return 9 // test + jcc
	case KNop:
		return 1
	case KTrap:
		return 4 // ud2 padded to a 4-byte slot, as trap-insertion passes emit
	case KVLoad:
		return 8
	case KVStore, KVStoreA:
		return 6
	case KVZeroUpper:
		return 3
	case KSys:
		return 2
	case KHalt:
		return 2
	}
	return 4
}

// Format disassembles the instruction (post-link form when Target is set),
// reading symbol names from syms, the symbol table of the instruction's
// program.
func (in *Instr) Format(syms []string) string {
	t := func() string {
		if in.Sym != NoSym {
			name := in.Sym.Name(syms)
			if in.SymOff != 0 {
				return fmt.Sprintf("%s%+d", name, in.SymOff)
			}
			return name
		}
		if in.LocalTarget >= 0 && in.Target == 0 {
			return fmt.Sprintf("@%d", in.LocalTarget)
		}
		return fmt.Sprintf("%#x", in.Target)
	}
	switch in.Kind {
	case KMovImm:
		if in.RetAddr {
			return fmt.Sprintf("mov %s, <ra:%d>", in.Dst, in.CallSiteID)
		}
		return fmt.Sprintf("mov %s, %#x", in.Dst, in.Imm)
	case KMovReg:
		return fmt.Sprintf("mov %s, %s", in.Dst, in.Src)
	case KLoad:
		return fmt.Sprintf("mov %s, [%s%+d]", in.Dst, in.Base, in.Disp)
	case KStore:
		return fmt.Sprintf("mov [%s%+d], %s", in.Base, in.Disp, in.Src)
	case KLea:
		return fmt.Sprintf("lea %s, [%s%+d]", in.Dst, in.Base, in.Disp)
	case KAlu:
		return fmt.Sprintf("%s %s, %s", in.Alu, in.Dst, in.Src)
	case KAluImm:
		return fmt.Sprintf("%s %s, %#x", in.Alu, in.Dst, in.Imm)
	case KSet:
		return fmt.Sprintf("set%s %s, %s, %s", in.Cmp, in.Dst, in.A, in.B)
	case KPush:
		return fmt.Sprintf("push %s", in.Src)
	case KPushImm:
		if in.RetAddr {
			if in.Target == 0 {
				return fmt.Sprintf("push <ra:%d>", in.CallSiteID)
			}
			return fmt.Sprintf("push %#x <ra:%d>", in.Target, in.CallSiteID)
		}
		if in.BTRA {
			return fmt.Sprintf("push %s <btra>", t())
		}
		return fmt.Sprintf("push %s", t())
	case KPop:
		return fmt.Sprintf("pop %s", in.Dst)
	case KCall:
		return fmt.Sprintf("call %s", t())
	case KCallInd:
		return fmt.Sprintf("call *%s", in.Src)
	case KRet:
		return "ret"
	case KJmp:
		return fmt.Sprintf("jmp %s", t())
	case KJz:
		return fmt.Sprintf("jz %s, %s", in.Src, t())
	case KJnz:
		return fmt.Sprintf("jnz %s, %s", in.Src, t())
	case KNop:
		return "nop"
	case KTrap:
		return "int3"
	case KVLoad:
		if in.Base == NoGPR {
			return fmt.Sprintf("vmovdqu %s, [%s]", in.VDst, t())
		}
		return fmt.Sprintf("vmovdqu %s, [%s%+d]", in.VDst, in.Base, in.Disp)
	case KVStore:
		return fmt.Sprintf("vmovdqu [%s%+d], %s", in.Base, in.Disp, in.VSrc)
	case KVStoreA:
		return fmt.Sprintf("vmovdqa [%s%+d], %s", in.Base, in.Disp, in.VSrc)
	case KVZeroUpper:
		return "vzeroupper"
	case KSys:
		return fmt.Sprintf("sys %s", in.Sys)
	case KHalt:
		return "hlt"
	}
	return in.Kind.String()
}

// EndsBlock reports whether the instruction terminates a basic block: every
// control transfer, plus the kinds that can stop or redirect the machine
// without being a branch (traps detonate, sys can halt or fail). The
// instruction after one of these starts a new block.
func (in *Instr) EndsBlock() bool {
	switch in.Kind {
	case KCall, KCallInd, KRet, KJmp, KJz, KJnz, KTrap, KSys, KHalt:
		return true
	}
	return false
}
