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
//   - one wide operand word per op: the immediate, the absolute (v)load or
//     vstore address, the base displacement, or the control-transfer
//     target, with the target also pre-resolved to an array index,
//   - basic-block extents with packed per-block instruction-class counts,
//     so the interpreter can charge a whole block's worth of architectural
//     counters on entry,
//   - static fetch-elision flags marking ops whose i-cache line / exec page
//     provably equals their predecessor's.
//
// Each op is one instruction and one dispatch: no adjacent pairs are fused
// (DESIGN.md §7 gives the measured pair shares that made fusion not pay).
//
// A synthetic sentinel op (XFellOff) sits after each function's last
// instruction, at the function's end address, so the interpreter detects
// straight-line execution running off a function end without per-op bounds
// checks. Because instructions are placed back to back, the op after a call
// is its return site, sentinel included: a call's return address is the
// next op's Addr, and ops carry no return-address field.
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
	XLoadBase // Dst = mem64[R[Base] + Imm]
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
	XCall // Imm = callee address, TIdx = its dense index
	XCallInd
	XRet
	XJmp
	XJz
	XJnz
	XNop
	XTrap
	XVLoadAbs // Imm = absolute effective address
	XVLoadBase
	XVStore // mem[Imm], plus R[Base] unless Base is NoGPR
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

// Op is one predecoded instruction, 32 bytes and pointer-free (TestOpSize
// and image.TestCodeArraysPointerFree pin both). The architectural Kind is
// retained for class accounting and cost lookup.
//
// Imm is the op's one wide operand, by exec code:
//
//   - XMovImm, XAluAddRI, XAluSubRI, XAluRI, XPushImm: the immediate;
//   - XLoadAbs, XVLoadAbs: the absolute address (Target + Disp);
//   - XLoadBase, XStore, XLea, XVLoadBase: the displacement from R[Base],
//     two's complement;
//   - XVStore, XVStoreA: Target + Disp with no base register, else the
//     displacement;
//   - XCall, XJmp, XJz, XJnz: the absolute target, which TIdx resolves;
//   - XBadVec: the invalid width, for the error message.
//
// The register bytes double up: Dst is also the vector destination, Src the
// vector source and a set's A, Base a set's B. Sub is the ALU, comparison or
// runtime-service suboperation of XAlu*, XSet and XSys.
type Op struct {
	Addr  uint64
	Imm   uint64
	TIdx  int32 // dense index of Imm for static transfers (-1: dynamic or wild)
	Block int32 // index into Program.Blocks

	Exec  uint8
	Kind  isa.Kind
	Flags uint8
	Sub   int8    // isa.AluOp, isa.CmpOp or isa.Sys
	Dst   isa.Reg // also isa.VReg
	Src   isa.Reg // also isa.VReg, and a set's A
	Base  isa.Reg // also a set's B
	Lanes uint8
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

// FuncIn is one function's input to Build, in text-placement order. Its
// instructions are placed back to back: Addrs[i+1] is Addrs[i] plus
// Instrs[i]'s encoded size, and End follows the last one the same way.
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

// FuncOf returns the index in Funcs of the function whose text holds the
// instruction at addr: the last one starting at or below it. A sentinel's
// address is its function's end, so callers look a sentinel up through the
// instruction before it.
func (p *Program) FuncOf(addr uint64) int {
	return sort.Search(len(p.Funcs), func(i int) bool { return p.Funcs[i].Start > addr }) - 1
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
			decode(&p.Ops[k], in, f.Addrs[i])
			k++
			if in.EndsBlock() {
				leader[k] = true
			}
		}
		p.Ops[k] = Op{Addr: f.End, Exec: XFellOff, Kind: isa.KNop, TIdx: -1}
		leader[k] = true
		k++
		p.Funcs[fi] = FuncMeta{Name: f.Name, Start: f.Start, End: f.End}
	}

	// Pass 2: resolve static control-transfer targets to dense indices,
	// each a leader.
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Exec {
		case XCall, XJmp, XJz, XJnz:
			if op.TIdx = p.IndexOf(op.Imm); op.TIdx >= 0 {
				leader[op.TIdx] = true
			}
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

// decode writes the predecoded form of the instruction placed at addr into
// op.
func decode(op *Op, in *isa.Instr, addr uint64) {
	*op = Op{
		Addr: addr, Imm: in.Imm, TIdx: -1, Kind: in.Kind,
		Dst: in.Dst, Src: in.Src, Base: in.Base,
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
			op.Imm = uint64(in.Disp)
		}
	case isa.KStore:
		op.Exec = XStore
		op.Imm = uint64(in.Disp)
	case isa.KLea:
		op.Exec = XLea
		op.Imm = uint64(in.Disp)
	case isa.KAlu:
		op.Sub = int8(in.Alu)
		switch in.Alu {
		case isa.AluAdd:
			op.Exec = XAluAddRR
		case isa.AluSub:
			op.Exec = XAluSubRR
		default:
			op.Exec = XAluRR
		}
	case isa.KAluImm:
		op.Sub = int8(in.Alu)
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
		op.Sub, op.Src, op.Base = int8(in.Cmp), in.A, in.B
	case isa.KPush:
		op.Exec = XPush
	case isa.KPushImm:
		op.Exec = XPushImm
	case isa.KPop:
		op.Exec = XPop
	case isa.KCall:
		op.Exec = XCall
		op.Imm = in.Target
	case isa.KCallInd:
		op.Exec = XCallInd
	case isa.KRet:
		op.Exec = XRet
	case isa.KJmp:
		op.Exec = XJmp
		op.Imm = in.Target
	case isa.KJz:
		op.Exec = XJz
		op.Imm = in.Target
	case isa.KJnz:
		op.Exec = XJnz
		op.Imm = in.Target
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
		op.Imm = uint64(in.Disp)
		if in.Base == isa.NoGPR {
			op.Imm += in.Target
		}
		switch in.Kind {
		case isa.KVLoad:
			op.Exec, op.Dst = XVLoadBase, isa.Reg(in.VDst)
			if in.Base == isa.NoGPR {
				op.Exec = XVLoadAbs
			}
		case isa.KVStore:
			op.Exec, op.Src = XVStore, isa.Reg(in.VSrc)
		default:
			op.Exec, op.Src = XVStoreA, isa.Reg(in.VSrc)
		}
	case isa.KVZeroUpper:
		op.Exec = XVZeroUpper
	case isa.KSys:
		op.Exec = XSys
		op.Sub = int8(in.Sys)
	case isa.KHalt:
		op.Exec = XHalt
	default:
		op.Exec = XUnimpl
	}
}
