// Package image is the linker and loader front half: it places compiled
// functions in the text section (applying function shuffling and booby-trap
// distribution), lays out the data section (applying global shuffling,
// padding, BTDP decoy placement), resolves every symbolic operand, applies
// ASLR slides, and emits the ground-truth metadata the runtime, the VM, the
// attack framework and the experiments consume.
package image

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"r2c/internal/codegen"
	"r2c/internal/isa"
	"r2c/internal/mem"
	"r2c/internal/pcode"
	"r2c/internal/rng"
	"r2c/internal/tir"
)

// Address-space geometry. Bases are pre-ASLR; Link adds page-aligned slides.
// The regions are far apart so pointer values cluster by region — the
// property AOCR's statistical analysis exploits (Section 4.2) and BTDPs
// must blend into.
const (
	textRegion  = 0x0000_5555_0000_0000
	dataGap     = 0x0000_0000_0100_0000 // 16 MiB text→data gap
	heapGapMax  = 0x0000_0000_1000_0000 // up to 256 MiB data→heap gap
	heapSpan    = 0x0000_0002_0000_0000 // 8 GiB heap ceiling
	stackRegion = 0x0000_7fff_f000_0000
	stackSize   = 1 << 20 // 1 MiB main-thread stack
	aslrEntropy = 1 << 28 // 256 MiB of slide entropy per region
)

// EntrySym is the synthesized process entry point (the simulated _start).
const EntrySym = "_start"

// DataKind classifies data-section symbols for layout and introspection.
type DataKind int

const (
	// DataGlobal is a module global (its tir kind is in Global.Kind).
	DataGlobal DataKind = iota
	// DataBTRAArray is an AVX2 BTRA call-site array.
	DataBTRAArray
	// DataBTDPPtr is the single pointer to the heap BTDP array.
	DataBTDPPtr
	// DataBTDPArray is the naive-mode in-data BTDP array.
	DataBTDPArray
	// DataBTDPDecoy is a decoy BTDP word.
	DataBTDPDecoy
	// DataPad is random inter-global padding.
	DataPad
)

func (k DataKind) String() string {
	switch k {
	case DataGlobal:
		return "global"
	case DataBTRAArray:
		return "btra-array"
	case DataBTDPPtr:
		return "btdp-ptr"
	case DataBTDPArray:
		return "btdp-array"
	case DataBTDPDecoy:
		return "btdp-decoy"
	case DataPad:
		return "pad"
	}
	return "?"
}

// DataSym is a placed data-section symbol.
type DataSym struct {
	Name string
	Addr uint64
	Size uint64
	Kind DataKind
	Tir  *tir.Global // non-nil for DataGlobal
}

// PlacedFunc records a function's final placement. InstrAddrs is the
// image's only per-instruction address index; InstrIndexAt binary-searches
// it.
type PlacedFunc struct {
	F          *codegen.Func
	Start, End uint64
	// InstrAddrs[i] is the address of F.Instrs[i], ascending.
	InstrAddrs []uint64
}

// UnwindEntry is one row of the simulated .eh_frame: enough metadata to
// unwind a frame from a PC inside the function body (Section 7.2.4).
// Entries are keyed by PC range, not symbol, and appear in the text-layout
// order — so function shuffling randomizes row positions.
type UnwindEntry struct {
	Start, End uint64
	PostOffset int
	FrameSize  int64
	NumSaves   int // callee-saved pushes (incl. rbp when used)
}

// Image is a linked, ASLR-slid program image. Where code lives is the
// text-ordered placement (Funcs in FuncOrder, each with its InstrAddrs):
// FuncAt and PlacedFunc.InstrIndexAt binary-search it. The predecoded Code
// keeps its own copy of each instruction's address in its ops' Addr, and
// Code.IndexOf binary-searches that copy. Fetch permission is checked
// against the paged memory, so execute-only text fetches work while reads
// fault.
type Image struct {
	Prog *codegen.Program

	TextBase, TextEnd uint64
	DataBase, DataEnd uint64
	HeapBase, HeapEnd uint64
	StackLow, StackHi uint64
	Entry             uint64

	Funcs     map[string]*PlacedFunc
	FuncOrder []string // final text-section order
	DataSyms  map[string]*DataSym
	DataOrder []string

	// DataInit holds the initial data-section words (resolved addresses
	// and global initializers), keyed by absolute address.
	DataInit map[uint64]uint64

	// CallSiteRA maps call-site ID to the real return-address value — the
	// toolchain ground truth the attack oracle judges guesses against.
	CallSiteRA map[int]uint64

	// Unwind is the simulated .eh_frame, sorted by Start.
	Unwind []UnwindEntry

	// Code is the predecoded program (package pcode): the dense form the
	// VM's fast-path interpreter executes. Built once per image and
	// immutable thereafter, so cached images share it across processes.
	Code *pcode.Program

	// placed is the placement in text order (ascending Start), the
	// array FuncAt searches.
	placed []*PlacedFunc

	// provOnce guards btraOrigins, the lazily built detonation-address →
	// planting-call-site index behind BTRAOrigins (see provenance.go).
	provOnce    sync.Once
	btraOrigins map[uint64][]BTRAOrigin
}

// Link places and resolves a compiled program. aslrSeed drives the ASLR
// slides and the link-stage randomizations (function and global shuffling);
// code-generation randomness was fixed earlier by the compile seed.
func Link(prog *codegen.Program, aslrSeed uint64) (*Image, error) {
	r := rng.New(aslrSeed)
	img := &Image{
		Prog:       prog,
		Funcs:      make(map[string]*PlacedFunc, len(prog.Funcs)+1),
		DataSyms:   make(map[string]*DataSym),
		DataInit:   make(map[uint64]uint64),
		CallSiteRA: make(map[int]uint64, prog.NumCallSites),
	}

	slide := func() uint64 { return mem.AlignUp(r.Uint64n(aslrEntropy), mem.PageSize) }
	img.TextBase = textRegion + slide()

	if err := img.placeText(r); err != nil {
		return nil, err
	}
	img.Entry = img.Funcs[EntrySym].Start
	if err := img.placeData(r); err != nil {
		return nil, err
	}

	// Heap follows the data segment at a randomized gap (brk-style). The
	// gap is at least 16 MiB so the data and heap value ranges stay
	// distinguishable clusters, like separate mappings on a real system.
	img.HeapBase = mem.AlignUp(img.DataEnd+dataGap+mem.AlignUp(r.Uint64n(heapGapMax), mem.PageSize), mem.PageSize)
	img.HeapEnd = img.HeapBase + heapSpan

	img.StackHi = stackRegion + slide()
	img.StackLow = img.StackHi - stackSize

	if err := img.resolve(); err != nil {
		return nil, err
	}
	img.RebuildCode()
	return img, nil
}

// RebuildCode derives the predecoded fast-path program from the instruction
// table. Link and Reroll call it once on the image they return.
func (img *Image) RebuildCode() {
	ins := make([]pcode.FuncIn, 0, len(img.FuncOrder))
	for _, name := range img.FuncOrder {
		pf := img.Funcs[name]
		ins = append(ins, pcode.FuncIn{
			Name:        name,
			Instrs:      pf.F.Instrs,
			Addrs:       pf.InstrAddrs,
			Start:       pf.Start,
			End:         pf.End,
			BlockStarts: pf.F.BlockStarts,
		})
	}
	img.Code = pcode.Build(ins)
}

// placeText assigns addresses to every function. With function shuffling
// enabled the order is a fresh permutation per link, and booby-trap
// functions end up randomly distributed over the text section — giving
// BTRAs the same value range as benign return addresses (Section 4.1).
func (img *Image) placeText(r *rng.RNG) error {
	prog := img.Prog

	// Synthesized entry: call main, then halt. It models the unprotected
	// libc startup code.
	start := &codegen.Func{
		Name: EntrySym,
		Instrs: []isa.Instr{
			{Kind: isa.KCall, Sym: prog.Intern(prog.Module.Entry), CallSiteID: -1, LocalTarget: -1},
			{Kind: isa.KHalt, LocalTarget: -1},
		},
	}

	funcs := make([]*codegen.Func, 0, len(prog.Funcs)+1)
	funcs = append(funcs, prog.Funcs...)
	if prog.Config.ShuffleFunctions {
		r.Shuffle(len(funcs), func(i, j int) { funcs[i], funcs[j] = funcs[j], funcs[i] })
	}
	funcs = append([]*codegen.Func{start}, funcs...)

	// Addresses only grow along funcs, so placed and Unwind come out
	// sorted by Start without a sort. Every function's InstrAddrs is a
	// window of one array.
	n := 0
	for _, f := range funcs {
		n += len(f.Instrs)
	}
	addrs := make([]uint64, n)
	pfs := make([]PlacedFunc, len(funcs))
	img.placed = make([]*PlacedFunc, 0, len(funcs))
	img.FuncOrder = make([]string, 0, len(funcs))
	cur := img.TextBase
	for fi, f := range funcs {
		cur = mem.AlignUp(cur, 16)
		pf := &pfs[fi]
		*pf = PlacedFunc{F: f, Start: cur, InstrAddrs: addrs[:len(f.Instrs):len(f.Instrs)]}
		addrs = addrs[len(f.Instrs):]
		for i := range f.Instrs {
			in := &f.Instrs[i]
			pf.InstrAddrs[i] = cur
			cur += uint64(in.EncodedSize())
			// Return-address ground truth: the address after the call.
			if (in.Kind == isa.KCall || in.Kind == isa.KCallInd) && in.CallSiteID >= 0 {
				img.CallSiteRA[int(in.CallSiteID)] = cur
			}
		}
		pf.End = cur
		if _, dup := img.Funcs[f.Name]; dup {
			return fmt.Errorf("image: duplicate function %q", f.Name)
		}
		img.Funcs[f.Name] = pf
		img.FuncOrder = append(img.FuncOrder, f.Name)
		img.placed = append(img.placed, pf)

		if !f.BoobyTrap && !f.Stub && f.Name != EntrySym {
			img.Unwind = append(img.Unwind, UnwindEntry{
				Start: pf.Start, End: pf.End,
				PostOffset: f.PostOffset,
				FrameSize:  f.FrameSize,
				NumSaves:   len(f.CalleeSaved),
			})
		}
	}
	img.TextEnd = mem.AlignUp(cur, mem.PageSize)
	return nil
}

// placeData lays out the data section: module globals (shuffled and padded
// per config), AVX2 BTRA arrays, and the BTDP symbols the runtime
// constructor fills (Section 5.2, Figure 5).
func (img *Image) placeData(r *rng.RNG) error {
	prog := img.Prog
	cfg := &prog.Config
	img.DataBase = mem.AlignUp(img.TextEnd+dataGap, mem.PageSize)
	cur := img.DataBase

	addSym := func(name string, size uint64, kind DataKind, g *tir.Global) *DataSym {
		cur = mem.AlignUp(cur, 8)
		s := &DataSym{Name: name, Addr: cur, Size: size, Kind: kind, Tir: g}
		img.DataSyms[name] = s
		img.DataOrder = append(img.DataOrder, name)
		cur += size
		return s
	}
	padCount := 0
	maybePad := func() {
		if cfg.GlobalPadding {
			if n := r.Intn(8); n > 0 {
				padCount++
				addSym("__pad"+strconv.Itoa(padCount), uint64(n)*8, DataPad, nil)
			}
		}
	}

	globals := append([]*tir.Global(nil), prog.Module.Globals...)
	if cfg.ShuffleGlobals {
		r.Shuffle(len(globals), func(i, j int) { globals[i], globals[j] = globals[j], globals[i] })
	}

	// Interleave BTDP decoys among the globals so the array pointer has
	// camouflage (Figure 5, hardened layout).
	type pendingDecoy struct{ name string }
	var decoys []pendingDecoy
	if cfg.BTDP && !cfg.BTDPNaiveDataArray {
		for i := 0; i < cfg.BTDPDataDecoys; i++ {
			decoys = append(decoys, pendingDecoy{codegen.SymBTDPDecoyPrefix + strconv.Itoa(i)})
		}
	}

	for _, g := range globals {
		maybePad()
		size := mem.AlignUp(g.Size, 8)
		sym := addSym(g.Name, size, DataGlobal, g)
		for i, w := range g.Init {
			img.DataInit[sym.Addr+uint64(i)*8] = w
		}
		// Sprinkle decoys between globals.
		if len(decoys) > 0 && r.Intn(2) == 0 {
			maybePad()
			addSym(decoys[0].name, 8, DataBTDPDecoy, nil)
			decoys = decoys[1:]
		}
	}
	for _, d := range decoys {
		maybePad()
		addSym(d.name, 8, DataBTDPDecoy, nil)
	}

	if cfg.BTDP {
		maybePad()
		if cfg.BTDPNaiveDataArray {
			addSym(codegen.SymBTDPArray, uint64(cfg.BTDPArrayLen)*8, DataBTDPArray, nil)
		} else {
			addSym(codegen.SymBTDPArrayPtr, 8, DataBTDPPtr, nil)
		}
	}

	for _, b := range prog.Blobs {
		addSym(b.Name, uint64(len(b.Words))*8, DataBTRAArray, nil)
	}

	img.DataEnd = mem.AlignUp(cur, mem.PageSize)
	return nil
}

// symAddr resolves a text or data symbol.
func (img *Image) symAddr(sym string) (uint64, error) {
	if pf, ok := img.Funcs[sym]; ok {
		return pf.Start, nil
	}
	if ds, ok := img.DataSyms[sym]; ok {
		return ds.Addr, nil
	}
	return 0, fmt.Errorf("image: unresolved symbol %q", sym)
}

// resolve patches every symbolic operand to an absolute address and
// materializes blob contents into DataInit.
func (img *Image) resolve() error {
	// Resolve each symbol once: addrs[id] is the address of the function or
	// data symbol named syms[id], or 0 when none is placed under that name
	// (no placement starts at address 0).
	syms := img.Prog.Syms
	addrs := make([]uint64, len(syms))
	for id := 1; id < len(syms); id++ {
		addrs[id], _ = img.symAddr(syms[id])
	}
	addrOf := func(s isa.Sym) (uint64, error) {
		if int(s) < len(addrs) && addrs[s] != 0 {
			return addrs[s], nil
		}
		return 0, fmt.Errorf("image: unresolved symbol %q", s.Name(syms))
	}
	cphInit := img.Prog.Config.CPH
	for _, name := range img.FuncOrder {
		pf := img.Funcs[name]
		for i := range pf.F.Instrs {
			in := &pf.F.Instrs[i]
			switch {
			case in.RetAddr:
				ra, ok := img.CallSiteRA[int(in.CallSiteID)]
				if !ok {
					return fmt.Errorf("image: %s: unresolved RA for call site %d", name, in.CallSiteID)
				}
				in.Imm = ra
				in.Target = ra
			case in.Sym != isa.NoSym:
				a, err := addrOf(in.Sym)
				if err != nil {
					return fmt.Errorf("image: %s: %w", name, err)
				}
				v := a + uint64(in.SymOff)
				in.Target = v
				if in.Kind == isa.KMovImm || in.Kind == isa.KPushImm {
					in.Imm = v
				}
			case in.LocalTarget >= 0 && (in.Kind == isa.KJmp || in.Kind == isa.KJz || in.Kind == isa.KJnz):
				if int(in.LocalTarget) >= len(pf.InstrAddrs) {
					return fmt.Errorf("image: %s: jump target %d out of range", name, in.LocalTarget)
				}
				in.Target = pf.InstrAddrs[in.LocalTarget]
			}
		}
	}

	// Function-pointer globals: the loader writes the function (or, under
	// CPH, trampoline) address.
	for _, name := range img.DataOrder {
		ds := img.DataSyms[name]
		if ds.Kind == DataGlobal && ds.Tir != nil && ds.Tir.Kind == tir.GlobalFuncPtr {
			targets := ds.Tir.InitFuncs
			if len(targets) == 0 {
				targets = []string{ds.Tir.InitFunc}
			}
			for i, target := range targets {
				if cphInit {
					if _, ok := img.Funcs[codegen.TrampolineSym(target)]; ok {
						target = codegen.TrampolineSym(target)
					}
				}
				a, err := img.symAddr(target)
				if err != nil {
					return err
				}
				img.DataInit[ds.Addr+uint64(i)*8] = a
			}
		}
	}

	// AVX2 BTRA arrays.
	for _, b := range img.Prog.Blobs {
		ds, ok := img.DataSyms[b.Name]
		if !ok {
			return fmt.Errorf("image: blob %q not placed", b.Name)
		}
		for i, w := range b.Words {
			var v uint64
			if w.RetAddr {
				ra, ok := img.CallSiteRA[int(w.CallSiteID)]
				if !ok {
					return fmt.Errorf("image: blob %q: unresolved RA %d", b.Name, w.CallSiteID)
				}
				v = ra
			} else {
				a, err := addrOf(w.Sym)
				if err != nil {
					return err
				}
				v = a + uint64(w.Off)
			}
			img.DataInit[ds.Addr+uint64(i)*8] = v
		}
	}
	return nil
}

// FuncAt returns the placed function containing addr, or nil.
func (img *Image) FuncAt(addr uint64) *PlacedFunc {
	fs := img.placed
	i := sort.Search(len(fs), func(i int) bool { return fs[i].End > addr })
	if i < len(fs) && addr >= fs[i].Start {
		return fs[i]
	}
	return nil
}

// InstrIndexAt returns the instruction index within pf whose address is
// addr, or -1 if addr is not an instruction boundary.
func (pf *PlacedFunc) InstrIndexAt(addr uint64) int {
	a := pf.InstrAddrs
	i := sort.Search(len(a), func(i int) bool { return a[i] >= addr })
	if i < len(a) && a[i] == addr {
		return i
	}
	return -1
}

// IsBoobyTrapAddr reports whether addr falls inside a booby-trap function —
// the oracle the attack framework uses to judge whether a candidate return
// address is a BTRA.
func (img *Image) IsBoobyTrapAddr(addr uint64) bool {
	pf := img.FuncAt(addr)
	return pf != nil && pf.F.BoobyTrap
}

// UnwindAt returns the unwind entry covering pc, or nil (Section 7.2.4).
func (img *Image) UnwindAt(pc uint64) *UnwindEntry {
	i := sort.Search(len(img.Unwind), func(i int) bool { return img.Unwind[i].End > pc })
	if i < len(img.Unwind) && pc >= img.Unwind[i].Start {
		return &img.Unwind[i]
	}
	return nil
}

// TextSize returns the text segment size in bytes.
func (img *Image) TextSize() uint64 { return img.TextEnd - img.TextBase }

// DataSize returns the data segment size in bytes.
func (img *Image) DataSize() uint64 { return img.DataEnd - img.DataBase }
