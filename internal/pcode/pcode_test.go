package pcode

import (
	"testing"
	"unsafe"

	"r2c/internal/isa"
	"r2c/internal/mem"
)

// place assigns consecutive encoded addresses starting at start and returns
// the per-instruction addresses plus the end-of-function address.
func place(start uint64, instrs []isa.Instr) ([]uint64, uint64) {
	addrs := make([]uint64, len(instrs))
	a := start
	for i := range instrs {
		addrs[i] = a
		a += uint64(instrs[i].EncodedSize())
	}
	return addrs, a
}

func fn(name string, start uint64, blockStarts []int, instrs ...isa.Instr) FuncIn {
	addrs, end := place(start, instrs)
	return FuncIn{Name: name, Instrs: instrs, Addrs: addrs, Start: start, End: end, BlockStarts: blockStarts}
}

// buildFixture is the shared multi-function program the tests pick apart,
// in text (ascending address) order as Build requires:
//
//	h:  nops straddling an i-cache line boundary
//	f:  push-imm run ending in a call, a jz back to the entry, halt
//	g:  abs load, bad-width vector op, wild call, ret; BlockStarts leader at 1
//	q:  nops straddling a page boundary
//	nf: push-imm pair whose second op is a jump target (a mid-function leader)
func buildFixture() (*Program, map[string]FuncIn) {
	lineBoundary := uint64(2) << lineShift
	pageBoundary := uint64(16) << mem.PageShift // clear of the other functions
	funcs := []FuncIn{
		fn("h", lineBoundary-2, nil,
			isa.Instr{Kind: isa.KNop},
			isa.Instr{Kind: isa.KNop},
			isa.Instr{Kind: isa.KNop},
		),
		fn("f", 0x1000, nil,
			isa.Instr{Kind: isa.KPushImm, Imm: 7},
			isa.Instr{Kind: isa.KPushImm, Imm: 8},
			isa.Instr{Kind: isa.KPushImm, Imm: 9},
			isa.Instr{Kind: isa.KCall, Target: 0x2000},
			isa.Instr{Kind: isa.KJz, Src: 1, Target: 0x1000},
			isa.Instr{Kind: isa.KHalt},
		),
		fn("g", 0x2000, []int{1},
			isa.Instr{Kind: isa.KAluImm, Alu: isa.AluAdd, Dst: 2, Imm: 16},
			isa.Instr{Kind: isa.KLoad, Dst: 3, Base: isa.NoGPR, Target: 0x8000, Disp: 8},
			isa.Instr{Kind: isa.KVLoad, Base: isa.NoGPR, Target: 0x8000, Imm: 5},
			isa.Instr{Kind: isa.KCall, Target: 0x9999},
			isa.Instr{Kind: isa.KRet},
		),
		fn("q", pageBoundary-2, nil,
			isa.Instr{Kind: isa.KNop},
			isa.Instr{Kind: isa.KNop},
			isa.Instr{Kind: isa.KNop},
		),
	}
	// nf's jump targets its second push, so the pair straddles a block edge.
	nfStart := pageBoundary + 0x1000
	nf := fn("nf", nfStart, nil,
		isa.Instr{Kind: isa.KPushImm, Imm: 1},
		isa.Instr{Kind: isa.KPushImm, Imm: 2},
		isa.Instr{Kind: isa.KJmp},
	)
	nf.Instrs[2].Target = nf.Addrs[1]
	funcs = append(funcs, nf)

	byName := make(map[string]FuncIn, len(funcs))
	for _, f := range funcs {
		byName[f.Name] = f
	}
	return Build(funcs), byName
}

func TestIndexOfAndSentinels(t *testing.T) {
	p, fns := buildFixture()

	nInstr := 0
	for _, f := range fns {
		nInstr += len(f.Instrs)
	}
	if got, want := p.NumOps(), nInstr+len(fns); got != want {
		t.Fatalf("NumOps = %d, want %d (instrs + one sentinel per function)", got, want)
	}

	for name, f := range fns {
		for i, a := range f.Addrs {
			ix := p.IndexOf(a)
			if ix < 0 {
				t.Fatalf("%s instr %d at %#x not indexed", name, i, a)
			}
			if p.Ops[ix].Addr != a || p.Ops[ix].Kind != f.Instrs[i].Kind {
				t.Fatalf("%s instr %d: index %d resolves to wrong op", name, i, ix)
			}
			// One op per instruction: Build rewrites no exec code.
			var want Op
			decode(&want, &f.Instrs[i], a)
			if got := p.Ops[ix].Exec; got != want.Exec {
				t.Fatalf("%s instr %d: exec %d, want its own decode %d", name, i, got, want.Exec)
			}
			if got := p.Funcs[p.FuncOf(a)].Name; got != name {
				t.Fatalf("%s instr %d: FuncOf(%#x) names %s", name, i, a, got)
			}
		}
		// The sentinel sits right after the last instruction, carries the
		// function-end address, and is not addressable.
		last := p.IndexOf(f.Addrs[len(f.Addrs)-1])
		s := p.Ops[last+1]
		if s.Exec != XFellOff || s.Addr != f.End {
			t.Fatalf("%s sentinel: got exec=%d addr=%#x, want XFellOff at %#x", name, s.Exec, s.Addr, f.End)
		}
		if p.IndexOf(f.End) != -1 {
			t.Fatalf("%s: sentinel address %#x must not be in the index", name, f.End)
		}
	}
	if p.IndexOf(0xdeadbeef) != -1 {
		t.Fatal("IndexOf of an unmapped address must be -1")
	}
	if f := fns["f"]; p.IndexOf(f.Addrs[0]+1) != -1 {
		t.Fatal("IndexOf of an address inside an instruction must be -1")
	}
}

// TestIndexOfSentinelTie places g directly after f, with no alignment
// padding, so f's sentinel and g's entry share an address: the entry must
// win, both for IndexOf and for the indices Build resolves through it, and
// FuncOf names g there.
func TestIndexOfSentinelTie(t *testing.T) {
	f := fn("f", 0x1000, nil,
		isa.Instr{Kind: isa.KNop},
		isa.Instr{Kind: isa.KCall},
	)
	g := fn("g", f.End, nil,
		isa.Instr{Kind: isa.KJmp, Target: f.End},
		isa.Instr{Kind: isa.KRet},
	)
	f.Instrs[1].Target = g.Start
	p := Build([]FuncIn{f, g})

	entry := int32(len(f.Instrs) + 1) // f's ops, f's sentinel, then g
	if s := p.Ops[entry-1]; s.Exec != XFellOff || s.Addr != g.Start {
		t.Fatalf("op %d: exec=%d addr=%#x, want f's sentinel at %#x", entry-1, s.Exec, s.Addr, g.Start)
	}
	if got := p.IndexOf(g.Start); got != entry {
		t.Fatalf("IndexOf(g.Start) = %d, want g's entry %d, not the sentinel", got, entry)
	}
	ci := p.IndexOf(f.Addrs[1])
	if call := p.Ops[ci]; call.TIdx != entry {
		t.Errorf("call TIdx=%d, want %d (g's entry)", call.TIdx, entry)
	}
	// f's last instruction is the call: its return site is f's sentinel,
	// whose address is g's entry.
	if ret := p.Ops[ci+1]; ret.Exec != XFellOff || ret.Addr != g.Start {
		t.Errorf("op after the call: exec=%d addr=%#x, want f's sentinel at %#x", ret.Exec, ret.Addr, g.Start)
	}
	if got := p.Funcs[p.FuncOf(g.Start)].Name; got != "g" {
		t.Errorf("FuncOf(g.Start) names %s, want g", got)
	}
	if jmp := p.Ops[entry]; jmp.TIdx != entry {
		t.Errorf("jmp TIdx = %d, want %d", jmp.TIdx, entry)
	}
	if got := p.IndexOf(g.End); got != -1 {
		t.Errorf("IndexOf(g.End) = %d, want -1 (sentinel only)", got)
	}
}

func TestTargetAndReturnResolution(t *testing.T) {
	p, fns := buildFixture()
	f, g := fns["f"], fns["g"]

	ci := p.IndexOf(f.Addrs[3])
	call := p.Ops[ci]
	if want := p.IndexOf(g.Start); call.TIdx != want || call.Imm != g.Start {
		t.Errorf("call TIdx = %d, Imm = %#x, want %d at %#x (g entry)", call.TIdx, call.Imm, want, g.Start)
	}
	// The return address is the next op's: instructions sit back to back.
	ra := f.Addrs[3] + uint64(f.Instrs[3].EncodedSize())
	if got := p.Ops[ci+1].Addr; got != ra {
		t.Errorf("op after the call at %#x, want the return address %#x", got, ra)
	}

	jz := p.Ops[p.IndexOf(f.Addrs[4])]
	if want := p.IndexOf(f.Start); jz.TIdx != want || jz.Imm != f.Start {
		t.Errorf("jz TIdx = %d, Imm = %#x, want %d at %#x (f entry)", jz.TIdx, jz.Imm, want, f.Start)
	}

	// A call to an unmapped address stays unresolved and keeps the address
	// for the fault.
	wild := p.Ops[p.IndexOf(g.Addrs[3])]
	if wild.TIdx != -1 || wild.Imm != 0x9999 {
		t.Errorf("wild call TIdx = %d, Imm = %#x, want -1 and 0x9999", wild.TIdx, wild.Imm)
	}
}

func TestDecodeSpecialCases(t *testing.T) {
	p, fns := buildFixture()
	g := fns["g"]

	load := p.Ops[p.IndexOf(g.Addrs[1])]
	if load.Exec != XLoadAbs || load.Imm != 0x8008 {
		t.Errorf("abs load: exec=%d imm=%#x, want XLoadAbs with precomputed %#x", load.Exec, load.Imm, uint64(0x8008))
	}

	bad := p.Ops[p.IndexOf(g.Addrs[2])]
	if bad.Exec != XBadVec || bad.Imm != 5 {
		t.Errorf("bad vector width: exec=%d imm=%d, want XBadVec keeping the width", bad.Exec, bad.Imm)
	}
}

// TestDecodeOperands checks the shared operand fields: Imm holds the
// displacement, the absolute address or the target by exec code, a wide
// displacement survives, and the register bytes carry set's A/B and the
// vector registers.
func TestDecodeOperands(t *testing.T) {
	const wide = -1 << 40 // does not fit 32 bits
	cases := []struct {
		in   isa.Instr
		want Op
	}{
		{isa.Instr{Kind: isa.KLoad, Dst: 1, Base: 2, Disp: wide},
			Op{Exec: XLoadBase, Kind: isa.KLoad, Dst: 1, Base: 2, Imm: 1<<64 - 1<<40}},
		{isa.Instr{Kind: isa.KStore, Src: 3, Base: 4, Disp: -8},
			Op{Exec: XStore, Kind: isa.KStore, Src: 3, Base: 4, Imm: 1<<64 - 8}},
		{isa.Instr{Kind: isa.KLea, Dst: 5, Base: isa.RSP, Disp: 24},
			Op{Exec: XLea, Kind: isa.KLea, Dst: 5, Base: isa.RSP, Imm: 24}},
		{isa.Instr{Kind: isa.KSet, Cmp: isa.CmpGeq, Dst: 6, A: 7, B: 8},
			Op{Exec: XSet, Kind: isa.KSet, Sub: int8(isa.CmpGeq), Dst: 6, Src: 7, Base: 8}},
		{isa.Instr{Kind: isa.KAluImm, Alu: isa.AluShl, Dst: 9, Imm: 3},
			Op{Exec: XAluRI, Kind: isa.KAluImm, Sub: int8(isa.AluShl), Dst: 9, Imm: 3}},
		{isa.Instr{Kind: isa.KSys, Sys: isa.SysOutput},
			Op{Exec: XSys, Kind: isa.KSys, Sub: int8(isa.SysOutput)}},
		{isa.Instr{Kind: isa.KVLoad, VDst: 3, Base: isa.NoGPR, Target: 0x8000, Disp: 16, Imm: 32},
			Op{Exec: XVLoadAbs, Kind: isa.KVLoad, Dst: 3, Base: isa.NoGPR, Lanes: 4, Imm: 0x8010}},
		{isa.Instr{Kind: isa.KVLoad, VDst: 2, Base: 1, Disp: wide, Imm: 64},
			Op{Exec: XVLoadBase, Kind: isa.KVLoad, Dst: 2, Base: 1, Lanes: 8, Imm: 1<<64 - 1<<40}},
		{isa.Instr{Kind: isa.KVStore, VSrc: 4, Base: isa.NoGPR, Target: 0x9000, Disp: 8, Imm: 16},
			Op{Exec: XVStore, Kind: isa.KVStore, Src: 4, Base: isa.NoGPR, Lanes: 2, Imm: 0x9008}},
		{isa.Instr{Kind: isa.KVStoreA, VSrc: 5, Base: isa.RSP, Disp: wide, Imm: 32},
			Op{Exec: XVStoreA, Kind: isa.KVStoreA, Src: 5, Base: isa.RSP, Lanes: 4, Imm: 1<<64 - 1<<40}},
		{isa.Instr{Kind: isa.KJnz, Src: 2, Target: 0x4000},
			Op{Exec: XJnz, Kind: isa.KJnz, Src: 2, Imm: 0x4000}},
	}
	for _, c := range cases {
		var got Op
		decode(&got, &c.in, 0x1000)
		c.want.Addr, c.want.TIdx = 0x1000, -1
		if got != c.want {
			t.Errorf("%v:\n got %+v\nwant %+v", c.in.Kind, got, c.want)
		}
	}
}

// TestOpSize pins the predecoded op at 32 bytes, half an x86 cache line:
// every build zeroes, fills and keeps one per instruction.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(pcode.Op{}) = %d, want 32", got)
	}
}

func TestFetchElisionFlags(t *testing.T) {
	p, fns := buildFixture()
	h, q := fns["h"], fns["q"]

	// Function entries are leaders: always checked dynamically.
	if got := p.Ops[p.IndexOf(h.Start)].Flags; got != FNewLine|FNewPage {
		t.Errorf("h entry flags = %#x, want FNewLine|FNewPage", got)
	}
	// Second nop shares its predecessor's line and page.
	if got := p.Ops[p.IndexOf(h.Addrs[1])].Flags; got != 0 {
		t.Errorf("h[1] flags = %#x, want 0 (same line, same page)", got)
	}
	// Third nop crosses the line boundary but not the page boundary.
	if got := p.Ops[p.IndexOf(h.Addrs[2])].Flags; got != FNewLine {
		t.Errorf("h[2] flags = %#x, want FNewLine", got)
	}
	// q's third nop crosses a page boundary (which is also a line boundary).
	if got := p.Ops[p.IndexOf(q.Addrs[2])].Flags; got != FNewLine|FNewPage {
		t.Errorf("q[2] flags = %#x, want FNewLine|FNewPage", got)
	}
}

func TestBlocksAndClassCounts(t *testing.T) {
	p, fns := buildFixture()
	f, g, nf := fns["f"], fns["g"], fns["nf"]

	// Every op belongs to the block that claims it, and blocks tile the
	// whole op array.
	next := int32(0)
	for bi, b := range p.Blocks {
		if b.Start != next || b.End <= b.Start {
			t.Fatalf("block %d: extent [%d,%d) does not tile (expected start %d)", bi, b.Start, b.End, next)
		}
		next = b.End
		for i := b.Start; i < b.End; i++ {
			if p.Ops[i].Block != int32(bi) {
				t.Fatalf("op %d claims block %d, lives in block %d", i, p.Ops[i].Block, bi)
			}
		}
	}
	if next != int32(len(p.Ops)) {
		t.Fatalf("blocks cover %d ops, want %d", next, len(p.Ops))
	}

	// Packed class counts match a direct recount, excluding sentinels.
	total := uint32(0)
	for bi, b := range p.Blocks {
		var want [isa.KindCount]uint32
		for i := b.Start; i < b.End; i++ {
			if p.Ops[i].Exec != XFellOff {
				want[p.Ops[i].Kind]++
			}
		}
		var got [isa.KindCount]uint32
		for _, pk := range p.Classes[b.ClassOff : b.ClassOff+uint32(b.ClassN)] {
			got[pk>>24] += pk & 0xffffff
		}
		if got != want {
			t.Fatalf("block %d: packed class counts %v != recount %v", bi, got, want)
		}
		for _, c := range got {
			total += c
		}
	}
	nInstr := uint32(0)
	for _, fin := range fns {
		nInstr += uint32(len(fin.Instrs))
	}
	if total != nInstr {
		t.Fatalf("class counts sum to %d, want %d instructions", total, nInstr)
	}

	// f's entry block runs up to the call's successor: the push run and the
	// call retire as one block of 3 pushes + 1 call.
	eb := p.Blocks[p.Ops[p.IndexOf(f.Start)].Block]
	if eb.End-eb.Start != 4 {
		t.Errorf("f entry block spans %d ops, want 4", eb.End-eb.Start)
	}

	// g's lowering-time BlockStarts entry forces a leader mid-function.
	gi := p.IndexOf(g.Addrs[1])
	if b := p.Blocks[p.Ops[gi].Block]; b.Start != gi {
		t.Errorf("g BlockStarts leader: block starts at %d, want %d", b.Start, gi)
	}
	// nf's jump target splits its push pair into two blocks.
	ni := p.IndexOf(nf.Addrs[1])
	if b := p.Blocks[p.Ops[ni].Block]; b.Start != ni {
		t.Errorf("nf jump-target leader: block starts at %d, want %d", b.Start, ni)
	}
}
