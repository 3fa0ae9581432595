// Package pcode predecodes a linked image into the dense, execution-oriented
// form the VM's fast-path interpreter dispatches over. The architectural
// representation (isa.Instr slices per function, placed in text order) stays
// the source of truth; pcode is a derived, immutable view built once at link
// time and shared by every process instantiated from the image — so it rides
// the content-addressed build cache for free.
//
// The predecoded form flattens all functions into one image-wide op array in
// text order — so ascending by address, which IndexOf binary-searches —
// with:
//
//   - a one-byte exec opcode per op (operand addressing modes and ALU
//     suboperations folded in) driving a dense dispatch switch,
//   - control-transfer targets pre-resolved to array indices,
//   - call return addresses and absolute load addresses precomputed,
//   - basic-block extents with packed per-block instruction-class counts,
//     so the interpreter can charge a whole block's worth of architectural
//     counters on entry,
//   - static fetch-elision flags marking ops whose i-cache line / exec page
//     provably equals their predecessor's.
//
// Each op is one instruction and one dispatch: no adjacent pairs are fused
// (DESIGN.md §7 gives the measured pair shares that made fusion not pay).
//
// A synthetic sentinel op (XFellOff) sits between functions so the
// interpreter detects straight-line execution running off a function end
// without per-op bounds checks.
package pcode

import (
	"math/bits"
	"sort"

	"r2c/internal/isa"
	"r2c/internal/mem"
)

// Exec opcodes. The fast interpreter switches on these; the set is dense so
// the compiler lowers the switch to a jump table.
const (
	XMovImm uint8 = iota
	XMovReg
	XLoadAbs  // Dst = mem64[Imm] (absolute address precomputed)
	XLoadBase // Dst = mem64[R[Base] + Disp]
	XStore
	XLea
	XAluAddRR // the two hottest ALU ops get dedicated codes
	XAluAddRI
	XAluSubRR
	XAluSubRI
	XAluRR // remaining reg-reg ALU ops, suboperation in Alu
	XAluRI
	XSet
	XPush
	XPushImm
	XPop
	XCall // Imm = return address, TIdx = callee's dense index
	XCallInd
	XRet
	XJmp
	XJz
	XJnz
	XNop
	XTrap
	XVLoadAbs // Imm = absolute effective address
	XVLoadBase
	XVStore // absolute or base-relative, decided by Base
	XVStoreA
	XVZeroUpper
	XSys
	XHalt
	XBadVec // vector op with invalid width: reproduces the architectural error
	XUnimpl
	XFellOff // sentinel between functions
)

// Fetch-elision flags: set when the op's i-cache line / exec page may differ
// from the previously fetched instruction's, so the interpreter must run the
// dynamic transition check. Clear means the check provably short-circuits
// (same line/page as the dense predecessor within a straight-line block).
const (
	FNewLine uint8 = 1 << iota
	FNewPage
)

// lineShift matches the VM's per-line fetch dedupe granularity (64-byte
// lines, the same constant the interpreter's fetch checks hardcode).
const lineShift = 6

// Op is one predecoded instruction. Fields are laid out for density; the
// architectural Kind is retained for class accounting and cost lookup.
type Op struct {
	Addr   uint64
	Imm    uint64 // immediates; calls: return address; abs (v)loads: address
	Disp   int64
	Target uint64 // absolute control-transfer / vstore target
	TIdx   int32  // dense index of Target (-1: dynamic or wild)
	RAIdx  int32  // calls: dense index of the return-address site (-1: none)
	Block  int32  // index into Program.Blocks
	FuncIx int32  // index into Program.Funcs

	Exec  uint8
	Kind  isa.Kind
	Alu   isa.AluOp
	Cmp   isa.CmpOp
	Sys   isa.Sys
	Dst   isa.Reg
	Src   isa.Reg
	Base  isa.Reg
	A, B  isa.Reg
	VDst  isa.VReg
	VSrc  isa.VReg
	Lanes uint8
	Flags uint8
}

// Block is a basic block's extent in the dense op array, plus its packed
// per-kind instruction counts in Program.Classes.
type Block struct {
	Start, End int32 // op index range [Start, End)
	ClassOff   uint32
	ClassN     uint16
}

// FuncMeta is the per-function metadata the interpreter needs at dispatch
// time (profiler attribution, fell-off-end diagnostics).
type FuncMeta struct {
	Name       string
	Start, End uint64
}

// FuncIn is one function's input to Build, in text-placement order.
type FuncIn struct {
	Name        string
	Instrs      []isa.Instr
	Addrs       []uint64 // Addrs[i] is the address of Instrs[i]
	Start, End  uint64
	BlockStarts []int // lowering-time leader indices (may be nil)
}

// Program is the predecoded image. It is immutable after Build and safe to
// share across concurrently executing machines.
type Program struct {
	Ops    []Op
	Blocks []Block
	// Classes holds packed per-block class counts: kind<<24 | count.
	Classes []uint32
	Funcs   []FuncMeta
}

// IndexOf returns the dense index of the instruction at addr, or -1 when
// addr is not an instruction boundary: a binary search over the text-ordered
// Ops. Sentinels are not addressable; one at f.End shares its address with
// the next function's entry when no padding separates them, and the entry,
// one slot later, wins.
func (p *Program) IndexOf(addr uint64) int32 {
	ops := p.Ops
	i := sort.Search(len(ops), func(i int) bool { return ops[i].Addr >= addr })
	for i < len(ops) && ops[i].Exec == XFellOff {
		i++
	}
	if i < len(ops) && ops[i].Addr == addr {
		return int32(i)
	}
	return -1
}

// NumOps returns the op count including sentinels (a capacity indicator for
// consumers sizing per-op side tables).
func (p *Program) NumOps() int { return len(p.Ops) }

// Build predecodes the given functions in text order — ascending
// addresses, which IndexOf's binary search relies on. The input slices
// are only read; the resulting Program holds no references into them except
// Func names.
func Build(funcs []FuncIn) *Program {
	nops := len(funcs)
	for i := range funcs {
		nops += len(funcs[i].Instrs)
	}
	p := &Program{
		Ops:   make([]Op, nops),
		Funcs: make([]FuncMeta, len(funcs)),
	}

	// Block leaders are function entries, sentinels, lowering-time block
	// starts, terminator successors (all marked by pass 1) and resolved
	// branch targets (marked by pass 2). Completeness here is a
	// performance property, not a correctness one: the interpreter runs a
	// control transfer that lands mid-block as a partial segment up to the
	// block end.
	leader := make([]bool, nops)

	// Pass 1: decode each instruction in its dense slot, with a sentinel
	// after each function so straight-line execution off the end is caught
	// by dispatch rather than a bounds check. Sentinels are not
	// architectural instructions; IndexOf skips them.
	k := 0
	for fi := range funcs {
		f := &funcs[fi]
		leader[k] = true
		for _, s := range f.BlockStarts {
			if s >= 0 && s < len(f.Instrs) {
				leader[k+s] = true
			}
		}
		for i := range f.Instrs {
			in := &f.Instrs[i]
			decode(&p.Ops[k], in, f.Addrs[i], int32(fi))
			k++
			if in.EndsBlock() {
				leader[k] = true
			}
		}
		p.Ops[k] = Op{Addr: f.End, Exec: XFellOff, Kind: isa.KNop, TIdx: -1, RAIdx: -1, FuncIx: int32(fi)}
		leader[k] = true
		k++
		p.Funcs[fi] = FuncMeta{Name: f.Name, Start: f.Start, End: f.End}
	}

	// Pass 2: resolve static control-transfer targets to dense indices,
	// each a leader, and calls' return-address sites (the fast
	// interpreter's return predictor pairs the pushed RA value with this
	// index, so a matching return skips the address lookup).
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Exec {
		case XCall, XJmp, XJz, XJnz:
			if op.TIdx = p.IndexOf(op.Target); op.TIdx >= 0 {
				leader[op.TIdx] = true
			}
		}
		switch op.Exec {
		case XCall, XCallInd:
			op.RAIdx = p.IndexOf(op.Imm)
		}
	}

	// Pass 3: static fetch-elision flags relative to the dense predecessor,
	// then block extents and packed class counts (sentinels excluded —
	// they retire nothing). Leaders always check dynamically (anything can
	// jump there); a non-leader only executes straight-line after its
	// predecessor, whose line/page the machine's transition trackers then
	// hold. A block's classes are its distinct kinds in ascending order, so
	// there are at most as many as it has instructions.
	nblocks := 0
	for _, l := range leader {
		if l {
			nblocks++
		}
	}
	p.Blocks = make([]Block, 0, nblocks)
	p.Classes = make([]uint32, 0, nops-len(funcs))
	var counts [isa.KindCount]uint32
	var kinds uint64 // bit k set: counts[k] > 0
	for i := range p.Ops {
		op := &p.Ops[i]
		if leader[i] {
			p.Blocks = append(p.Blocks, Block{Start: int32(i), ClassOff: uint32(len(p.Classes))})
			op.Flags = FNewLine | FNewPage
		} else {
			prev := p.Ops[i-1].Addr
			if op.Addr>>lineShift != prev>>lineShift {
				op.Flags |= FNewLine
			}
			if op.Addr>>mem.PageShift != prev>>mem.PageShift {
				op.Flags |= FNewPage
			}
		}
		op.Block = int32(len(p.Blocks) - 1)
		if op.Exec != XFellOff {
			kinds |= 1 << op.Kind
			counts[op.Kind]++
		}
		if i+1 == len(p.Ops) || leader[i+1] {
			b := &p.Blocks[len(p.Blocks)-1]
			b.End, b.ClassN = int32(i+1), uint16(bits.OnesCount64(kinds))
			for ; kinds != 0; kinds &= kinds - 1 {
				k := bits.TrailingZeros64(kinds)
				p.Classes = append(p.Classes, uint32(k)<<24|counts[k])
				counts[k] = 0
			}
		}
	}
	return p
}

// decode writes the predecoded form of one placed instruction of function
// fi into op.
func decode(op *Op, in *isa.Instr, addr uint64, fi int32) {
	*op = Op{
		Addr: addr, Imm: in.Imm, Disp: in.Disp, Target: in.Target, TIdx: -1, RAIdx: -1, FuncIx: fi,
		Kind: in.Kind, Alu: in.Alu, Cmp: in.Cmp, Sys: in.Sys,
		Dst: in.Dst, Src: in.Src, Base: in.Base, A: in.A, B: in.B,
		VDst: in.VDst, VSrc: in.VSrc,
	}
	switch in.Kind {
	case isa.KMovImm:
		op.Exec = XMovImm
	case isa.KMovReg:
		op.Exec = XMovReg
	case isa.KLoad:
		if in.Base == isa.NoGPR {
			op.Exec = XLoadAbs
			op.Imm = in.Target + uint64(in.Disp)
		} else {
			op.Exec = XLoadBase
		}
	case isa.KStore:
		op.Exec = XStore
	case isa.KLea:
		op.Exec = XLea
	case isa.KAlu:
		switch in.Alu {
		case isa.AluAdd:
			op.Exec = XAluAddRR
		case isa.AluSub:
			op.Exec = XAluSubRR
		default:
			op.Exec = XAluRR
		}
	case isa.KAluImm:
		switch in.Alu {
		case isa.AluAdd:
			op.Exec = XAluAddRI
		case isa.AluSub:
			op.Exec = XAluSubRI
		default:
			op.Exec = XAluRI
		}
	case isa.KSet:
		op.Exec = XSet
	case isa.KPush:
		op.Exec = XPush
	case isa.KPushImm:
		op.Exec = XPushImm
	case isa.KPop:
		op.Exec = XPop
	case isa.KCall:
		op.Exec = XCall
		op.Imm = addr + uint64(in.EncodedSize()) // return address
	case isa.KCallInd:
		op.Exec = XCallInd
		op.Imm = addr + uint64(in.EncodedSize())
	case isa.KRet:
		op.Exec = XRet
	case isa.KJmp:
		op.Exec = XJmp
	case isa.KJz:
		op.Exec = XJz
	case isa.KJnz:
		op.Exec = XJnz
	case isa.KNop:
		op.Exec = XNop
	case isa.KTrap:
		op.Exec = XTrap
	case isa.KVLoad, isa.KVStore, isa.KVStoreA:
		lanes := int(in.Imm) / 8
		if lanes <= 0 || lanes > 8 {
			op.Exec = XBadVec // keep Imm: the error message prints the width
			break
		}
		op.Lanes = uint8(lanes)
		switch in.Kind {
		case isa.KVLoad:
			if in.Base == isa.NoGPR {
				op.Exec = XVLoadAbs
				op.Imm = in.Target + uint64(in.Disp)
			} else {
				op.Exec = XVLoadBase
			}
		case isa.KVStore:
			op.Exec = XVStore
		default:
			op.Exec = XVStoreA
		}
	case isa.KVZeroUpper:
		op.Exec = XVZeroUpper
	case isa.KSys:
		op.Exec = XSys
	case isa.KHalt:
		op.Exec = XHalt
	default:
		op.Exec = XUnimpl
	}
}
