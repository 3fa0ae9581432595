package image

import (
	"reflect"
	"strings"
	"testing"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/isa"
	"r2c/internal/pcode"
	"r2c/internal/tir"
)

func testModule(t *testing.T) *tir.Module {
	t.Helper()
	mb := tir.NewModule("imgtest")
	mb.AddGlobal("g1", 8, 0x11)
	mb.AddGlobal("g2", 16, 0x22, 0x33)
	mb.AddDefaultParam("dp", 9)
	leaf := mb.NewFunc("leaf", 1)
	l := leaf.NewLocal("x", 8)
	a := leaf.AddrLocal(l)
	leaf.Store(a, 0, leaf.Param(0))
	leaf.Ret(leaf.Load(a, 0))
	mb.AddFuncPtr("fp", "leaf")
	main := mb.NewFunc("main", 0)
	v := main.Const(3)
	r := main.Call("leaf", v)
	main.Output(r)
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

func link(t *testing.T, cfg defense.Config, seed uint64) *Image {
	t.Helper()
	p, err := codegen.Compile(testModule(t), cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Link(p, seed+100)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestLayoutBasics(t *testing.T) {
	img := link(t, defense.Off(), 1)
	if img.TextBase >= img.TextEnd || img.DataBase >= img.DataEnd {
		t.Fatal("degenerate segments")
	}
	if img.TextEnd > img.DataBase || img.DataEnd > img.HeapBase || img.HeapEnd > img.StackLow {
		t.Fatal("segments out of order")
	}
	// The data→heap gap must exceed the clustering threshold so value
	// clustering can separate the regions.
	if img.HeapBase-img.DataEnd < 16<<20 {
		t.Errorf("data→heap gap too small: %#x", img.HeapBase-img.DataEnd)
	}
	if img.Entry != img.Funcs[EntrySym].Start {
		t.Error("entry is not _start")
	}
}

func TestInstructionAddressing(t *testing.T) {
	img := link(t, defense.R2CFull(), 2)
	for name, pf := range img.Funcs {
		prev := pf.Start
		for i := range pf.F.Instrs {
			addr := pf.InstrAddrs[i]
			if addr < pf.Start || addr >= pf.End {
				t.Fatalf("%s instr %d at %#x outside [%#x,%#x)", name, i, addr, pf.Start, pf.End)
			}
			if i > 0 && addr <= prev {
				t.Fatalf("%s instr %d not monotonically placed", name, i)
			}
			if i > 0 && addr != prev+uint64(pf.F.Instrs[i-1].EncodedSize()) {
				t.Fatalf("%s instr %d at %#x does not follow instr %d", name, i, addr, i-1)
			}
			prev = addr
			if got := pf.InstrIndexAt(addr); got != i {
				t.Fatalf("InstrIndexAt(%#x) = %d, want %d", addr, got, i)
			}
		}
		if pf.InstrIndexAt(pf.Start+1) != -1 && pf.F.Instrs[0].EncodedSize() > 1 {
			t.Fatalf("%s: mid-instruction address resolved", name)
		}
	}
}

func TestFuncAt(t *testing.T) {
	img := link(t, defense.R2CFull(), 3)
	for name, pf := range img.Funcs {
		if got := img.FuncAt(pf.Start); got != pf {
			t.Fatalf("FuncAt(start of %s) wrong", name)
		}
		if got := img.FuncAt(pf.End - 1); got != pf {
			t.Fatalf("FuncAt(end of %s) wrong", name)
		}
	}
	if img.FuncAt(img.TextBase-16) != nil {
		t.Error("FuncAt resolved below text")
	}
	if img.FuncAt(img.TextEnd+0x10000) != nil {
		t.Error("FuncAt resolved above text")
	}
}

func TestReturnAddressGroundTruth(t *testing.T) {
	img := link(t, defense.R2CFull(), 4)
	if len(img.CallSiteRA) == 0 {
		t.Fatal("no call sites recorded")
	}
	for id, ra := range img.CallSiteRA {
		pf := img.FuncAt(ra)
		if pf == nil {
			t.Fatalf("site %d RA %#x not in text", id, ra)
		}
		// The RA must be the address right after a call instruction.
		i := pf.InstrIndexAt(ra)
		if i <= 0 {
			t.Fatalf("site %d RA %#x not an instruction boundary", id, ra)
		}
		prev := &pf.F.Instrs[i-1]
		if prev.Kind != isa.KCall && prev.Kind != isa.KCallInd {
			t.Fatalf("site %d RA %#x does not follow a call (%v)", id, ra, prev.Kind)
		}
	}
}

func TestBTRAResolution(t *testing.T) {
	img := link(t, defense.R2CPush(), 5)
	found := 0
	for _, name := range img.FuncOrder {
		pf := img.Funcs[name]
		for i := range pf.F.Instrs {
			in := &pf.F.Instrs[i]
			if in.Kind == isa.KPushImm && in.BTRA {
				found++
				if !img.IsBoobyTrapAddr(in.Imm) {
					t.Fatalf("BTRA %#x does not point into a booby trap", in.Imm)
				}
				// It must resolve to an instruction boundary (executing it
				// detonates cleanly).
				bt := img.FuncAt(in.Imm)
				if bt.InstrIndexAt(in.Imm) < 0 {
					t.Fatalf("BTRA %#x lands mid-instruction", in.Imm)
				}
			}
			if in.RetAddr && in.Kind == isa.KPushImm {
				if ra := img.CallSiteRA[int(in.CallSiteID)]; in.Imm != ra {
					t.Fatalf("pre-pushed RA %#x != call site %d RA %#x",
						in.Imm, in.CallSiteID, ra)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no BTRA pushes found")
	}
}

func TestAVXArrayResolution(t *testing.T) {
	img := link(t, defense.R2CFull(), 6)
	raSet := map[uint64]bool{}
	for _, ra := range img.CallSiteRA {
		raSet[ra] = true
	}
	arrays := 0
	for _, b := range img.Prog.Blobs {
		ds := img.DataSyms[b.Name]
		if ds == nil || ds.Kind != DataBTRAArray {
			t.Fatalf("array %s not placed as a BTRA array", b.Name)
		}
		arrays++
		ras := 0
		for i, w := range b.Words {
			v, ok := img.DataInit[ds.Addr+uint64(i)*8]
			if !ok {
				t.Fatalf("array %s word %d not initialized", b.Name, i)
			}
			if w.RetAddr {
				ras++
				if !raSet[v] {
					t.Fatalf("array %s RA word %#x is not a real RA", b.Name, v)
				}
			} else if !img.IsBoobyTrapAddr(v) {
				t.Fatalf("array %s word %d (%#x) is not a booby trap", b.Name, i, v)
			}
		}
		if ras != 1 {
			t.Fatalf("array %s has %d RA words", b.Name, ras)
		}
	}
	if arrays == 0 {
		t.Fatal("no arrays found")
	}
}

func TestShufflingDiversifies(t *testing.T) {
	a := link(t, defense.R2CFull(), 7).LayoutSummary()
	b := link(t, defense.R2CFull(), 8).LayoutSummary()
	if reflect.DeepEqual(a.FuncNames(true), b.FuncNames(true)) {
		t.Error("function order identical across links")
	}
	if reflect.DeepEqual(a.GlobalNames(), b.GlobalNames()) {
		t.Error("global order identical across links")
	}
	// Booby traps must be interspersed, not clumped at the end: at least
	// one trap before the last regular function.
	lastRegular := -1
	firstTrap := -1
	for _, fs := range a.Funcs {
		if fs.BoobyTrap {
			if firstTrap == -1 {
				firstTrap = fs.Order
			}
		} else {
			lastRegular = fs.Order
		}
	}
	if firstTrap == -1 || firstTrap > lastRegular {
		t.Error("booby traps not distributed among regular functions")
	}
}

func TestBaselineIsStableModuloASLR(t *testing.T) {
	a := link(t, defense.Off(), 9).LayoutSummary()
	b := link(t, defense.Off(), 10).LayoutSummary()
	if !reflect.DeepEqual(a.FuncNames(true), b.FuncNames(true)) {
		t.Error("baseline function order changed across seeds (monoculture broken)")
	}
	// Relative offsets identical.
	bOff := map[string]uint64{}
	for _, fs := range b.Funcs {
		bOff[fs.Name] = fs.Off
	}
	for _, fs := range a.Funcs {
		if off, ok := bOff[fs.Name]; !ok || off != fs.Off {
			t.Errorf("%s: baseline offset differs (%#x vs %#x, present %v)", fs.Name, fs.Off, off, ok)
		}
	}
	if a.TextBase == b.TextBase {
		t.Error("ASLR produced identical slides")
	}
}

func TestFuncPtrGlobalResolution(t *testing.T) {
	img := link(t, defense.Off(), 11)
	ds := img.DataSyms["fp"]
	v := img.DataInit[ds.Addr]
	if v != img.Funcs["leaf"].Start {
		t.Fatalf("fp = %#x, want leaf at %#x", v, img.Funcs["leaf"].Start)
	}
	// Under CPH it points at the trampoline instead.
	img2 := link(t, defense.Readactor(), 11)
	ds2 := img2.DataSyms["fp"]
	v2 := img2.DataInit[ds2.Addr]
	if v2 != img2.Funcs[codegen.TrampolineSym("leaf")].Start {
		t.Fatalf("fp under CPH = %#x, want trampoline", v2)
	}
}

func TestUnwindTable(t *testing.T) {
	img := link(t, defense.R2CFull(), 12)
	for i := 1; i < len(img.Unwind); i++ {
		if img.Unwind[i].Start < img.Unwind[i-1].End {
			t.Fatal("unwind entries overlap or are unsorted")
		}
	}
	pf := img.Funcs["leaf"]
	ue := img.UnwindAt(pf.Start + 5)
	if ue == nil || ue.Start != pf.Start {
		t.Fatalf("UnwindAt(leaf) = %+v", ue)
	}
	if img.UnwindAt(img.TextBase-100) != nil {
		t.Error("UnwindAt resolved outside text")
	}
	// Booby traps and stubs carry no unwind info.
	for _, ueX := range img.Unwind {
		f := img.FuncAt(ueX.Start).F
		if f.BoobyTrap || f.Stub {
			t.Errorf("%s should not have unwind info", f.Name)
		}
	}
}

// dataKindCount returns how many of ls's data symbols have the given kind.
func dataKindCount(ls *LayoutSummary, kind DataKind) int {
	n := 0
	for _, d := range ls.Data {
		if d.Kind == kind {
			n++
		}
	}
	return n
}

func TestDataSectionContents(t *testing.T) {
	img := link(t, defense.R2CFull(), 13)
	// Every configured BTDP decoy symbol must exist, plus the array
	// pointer slot; padding appears between globals.
	if _, ok := img.DataSyms[codegen.SymBTDPArrayPtr]; !ok {
		t.Error("BTDP array pointer slot missing")
	}
	ls := img.LayoutSummary()
	if decoys := dataKindCount(ls, DataBTDPDecoy); decoys != img.Prog.Config.BTDPDataDecoys {
		t.Errorf("decoys = %d, want %d", decoys, img.Prog.Config.BTDPDataDecoys)
	}
	if dataKindCount(ls, DataPad) == 0 {
		t.Error("no inter-global padding emitted")
	}
	// Global initializers land at the right addresses.
	g2 := img.DataSyms["g2"]
	if img.DataInit[g2.Addr] != 0x22 || img.DataInit[g2.Addr+8] != 0x33 {
		t.Error("global initializer words wrong")
	}
}

// TestLinkRejectsUnresolvedSymbol: a reference to a name nothing is placed
// under, or to an ID outside the program's table, fails the link and names
// the symbol.
func TestLinkRejectsUnresolvedSymbol(t *testing.T) {
	for _, c := range []struct {
		sym  func(p *codegen.Program) isa.Sym
		want string
	}{
		{func(p *codegen.Program) isa.Sym { return p.Intern("nowhere") }, `unresolved symbol "nowhere"`},
		{func(p *codegen.Program) isa.Sym { return isa.Sym(len(p.Syms) + 5) }, "unresolved symbol \"sym#"},
	} {
		p, err := codegen.Compile(testModule(t), defense.Off(), 1)
		if err != nil {
			t.Fatal(err)
		}
		main := p.Func("main")
		main.Instrs[0] = isa.Instr{Kind: isa.KMovImm, Dst: isa.RAX, Sym: c.sym(p), LocalTarget: -1}
		if _, err := Link(p, 1); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Link error %v, want one containing %s", err, c.want)
		}
	}
}

// TestCodeArraysPointerFree holds the element types of an image's big
// arrays to plain data: the instructions, the predecoded ops and blocks,
// and the AVX2 array words. A pointer-bearing field (a string, slice, map
// or pointer) in any of them makes the garbage collector zero and scan
// every retained image's code on each cycle.
func TestCodeArraysPointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[isa.Instr](),
		reflect.TypeFor[pcode.Op](),
		reflect.TypeFor[pcode.Block](),
		reflect.TypeFor[codegen.AddrWord](),
	} {
		if path := pointerField(typ); path != "" {
			t.Errorf("%v holds a pointer at %s", typ, path)
		}
	}
}

// pointerField returns the path to the first pointer-bearing field in typ
// and that field's kind, or "" when typ is plain data.
func pointerField(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerField(f.Type); p != "" {
				return "." + f.Name + p
			}
		}
		return ""
	case reflect.Array:
		if p := pointerField(typ.Elem()); p != "" {
			return "[]" + p
		}
		return ""
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	}
	return " (" + typ.Kind().String() + ")"
}
