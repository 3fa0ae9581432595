// Package pcode predecodes a linked image into the dense, execution-oriented
// form the VM's fast-path interpreter dispatches over. The architectural
// representation (isa.Instr slices per function, address-keyed decode map,
// binary-searched control transfers) stays the source of truth; pcode is a
// derived, immutable view built once at link time and shared by every
// process instantiated from the image — so it rides the content-addressed
// build cache for free.
//
// The predecoded form flattens all functions into one image-wide op array in
// text order, with:
//
//   - a one-byte exec opcode per op (operand addressing modes and ALU
//     suboperations folded in) driving a dense dispatch switch,
//   - control-transfer targets pre-resolved to array indices,
//   - call return addresses and absolute load addresses precomputed,
//   - basic-block extents with packed per-block instruction-class counts,
//     so the interpreter can charge a whole block's worth of architectural
//     counters on entry,
//   - static fetch-elision flags marking ops whose i-cache line / exec page
//     provably equals their predecessor's,
//   - fused superinstructions for the adjacent pairs that dominate defended
//     code (BTRA push runs, push-imm/call, the pre-call RSP adjust, and the
//     AVX2 vload/vstore setup pair).
//
// A synthetic sentinel op (XFellOff) sits between functions so the
// interpreter detects straight-line execution running off a function end
// without per-op bounds checks.
package pcode

import (
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

	// Superinstructions: the op at index i carries the fused code, the
	// second component at i+1 keeps its unfused entry (so it stays a valid
	// resume/branch-target point; fusion only happens when i+1 is not a
	// block leader, i.e. nothing can enter between the two).
	XPushImm2      // KPushImm ; KPushImm — BTRA push runs
	XPushImmCall   // KPushImm ; KCall — RA push + call
	XAluAddImmCall // KAluImm(add) ; KCall — pre-call RSP adjust
	XVLoadStore    // KVLoad(abs) ; KVStore — AVX2 BTRA setup pair
)

// Unfused returns the exec code of a fused superinstruction's first
// component — what the interpreter runs when a segment cut separates the
// pair — or x itself when x is not fused.
func Unfused(x uint8) uint8 {
	switch x {
	case XPushImm2, XPushImmCall:
		return XPushImm
	case XAluAddImmCall:
		return XAluAddRI
	case XVLoadStore:
		return XVLoadAbs
	}
	return x
}

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

	byAddr map[uint64]int32
}

// IndexOf returns the dense index of the instruction at addr, or -1 when
// addr is not an instruction boundary (sentinels are not addressable).
func (p *Program) IndexOf(addr uint64) int32 {
	if i, ok := p.byAddr[addr]; ok {
		return i
	}
	return -1
}

// NumOps returns the op count including sentinels (a capacity indicator for
// consumers sizing per-op side tables).
func (p *Program) NumOps() int { return len(p.Ops) }

// Build predecodes the given functions (in text order). The input slices
// are only read; the resulting Program holds no references into them except
// Func names.
func Build(funcs []FuncIn) *Program {
	nops := len(funcs)
	for _, f := range funcs {
		nops += len(f.Instrs)
	}
	p := &Program{
		Ops:    make([]Op, 0, nops),
		Funcs:  make([]FuncMeta, 0, len(funcs)),
		byAddr: make(map[uint64]int32, nops),
	}

	// Pass 1: decode each instruction into its dense slot, with a sentinel
	// after each function so straight-line execution off the end is caught
	// by dispatch rather than a bounds check. Sentinel addresses are not
	// entered in the address map — they are not architectural instructions.
	base := make([]int32, len(funcs))
	for fi := range funcs {
		f := &funcs[fi]
		base[fi] = int32(len(p.Ops))
		for i := range f.Instrs {
			op := decode(&f.Instrs[i], f.Addrs[i])
			op.FuncIx = int32(fi)
			p.byAddr[f.Addrs[i]] = int32(len(p.Ops))
			p.Ops = append(p.Ops, op)
		}
		p.Ops = append(p.Ops, Op{
			Addr: f.End, Exec: XFellOff, Kind: isa.KNop,
			TIdx: -1, FuncIx: int32(fi),
		})
		p.Funcs = append(p.Funcs, FuncMeta{Name: f.Name, Start: f.Start, End: f.End})
	}

	// Pass 2: resolve static control-transfer targets to dense indices, and
	// calls' return-address sites (the fast interpreter's return predictor
	// pairs the pushed RA value with this index, so a matching return skips
	// the address-map lookup).
	for i := range p.Ops {
		op := &p.Ops[i]
		op.RAIdx = -1
		switch op.Exec {
		case XCall, XJmp, XJz, XJnz:
			if t, ok := p.byAddr[op.Target]; ok {
				op.TIdx = t
			}
		}
		switch op.Exec {
		case XCall, XCallInd:
			if r, ok := p.byAddr[op.Imm]; ok {
				op.RAIdx = r
			}
		}
	}

	// Pass 3: block leaders — function entries, sentinels, lowering-time
	// block starts, resolved branch targets, and terminator successors.
	// Completeness here is a performance property, not a correctness one:
	// the interpreter runs a control transfer that lands mid-block as a
	// partial segment up to the block end.
	leader := make([]bool, len(p.Ops)+1)
	for fi := range funcs {
		f := &funcs[fi]
		b := int(base[fi])
		leader[b] = true
		leader[b+len(f.Instrs)] = true // sentinel
		for _, s := range f.BlockStarts {
			if s >= 0 && s < len(f.Instrs) {
				leader[b+s] = true
			}
		}
		for i := range f.Instrs {
			if f.Instrs[i].EndsBlock() {
				leader[b+i+1] = true
			}
		}
	}
	for i := range p.Ops {
		if t := p.Ops[i].TIdx; t >= 0 {
			leader[t] = true
		}
	}

	// Pass 4: static fetch-elision flags relative to the dense predecessor.
	// Leaders always check dynamically (anything can jump there); a
	// non-leader only executes straight-line after its predecessor, whose
	// line/page the machine's transition trackers then hold.
	for i := range p.Ops {
		op := &p.Ops[i]
		if i == 0 || leader[i] {
			op.Flags = FNewLine | FNewPage
			continue
		}
		prev := &p.Ops[i-1]
		if op.Addr>>lineShift != prev.Addr>>lineShift {
			op.Flags |= FNewLine
		}
		if op.Addr>>mem.PageShift != prev.Addr>>mem.PageShift {
			op.Flags |= FNewPage
		}
	}

	// Pass 5: fuse adjacent pairs inside a block. The second component must
	// not be a leader (no edge may enter between the components).
	for i := 0; i+1 < len(p.Ops); {
		if leader[i+1] {
			i++
			continue
		}
		a, b := &p.Ops[i], &p.Ops[i+1]
		switch {
		case a.Exec == XPushImm && b.Exec == XPushImm:
			a.Exec = XPushImm2
		case a.Exec == XPushImm && b.Exec == XCall:
			a.Exec = XPushImmCall
		case a.Exec == XAluAddRI && b.Exec == XCall:
			a.Exec = XAluAddImmCall
		case a.Exec == XVLoadAbs && b.Exec == XVStore:
			a.Exec = XVLoadStore
		default:
			i++
			continue
		}
		i += 2
	}

	// Pass 6: block extents and packed class counts (sentinels excluded —
	// they retire nothing).
	for s := 0; s < len(p.Ops); {
		e := s + 1
		for e < len(p.Ops) && !leader[e] {
			e++
		}
		var counts [isa.KindCount]uint32
		for i := s; i < e; i++ {
			if p.Ops[i].Exec != XFellOff {
				counts[p.Ops[i].Kind]++
			}
		}
		off := uint32(len(p.Classes))
		var n uint16
		for k, c := range counts {
			if c > 0 {
				p.Classes = append(p.Classes, uint32(k)<<24|c)
				n++
			}
		}
		bi := int32(len(p.Blocks))
		p.Blocks = append(p.Blocks, Block{Start: int32(s), End: int32(e), ClassOff: off, ClassN: n})
		for i := s; i < e; i++ {
			p.Ops[i].Block = bi
		}
		s = e
	}
	return p
}

// decode translates one placed instruction into its predecoded form.
func decode(in *isa.Instr, addr uint64) Op {
	op := Op{
		Addr: addr, Imm: in.Imm, Disp: in.Disp, Target: in.Target, TIdx: -1,
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
	return op
}
