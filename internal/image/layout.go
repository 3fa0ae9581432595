package image

// This file is the image's layout-introspection API: a flattened, stable
// summary of where the linker put everything, expressed both absolutely and
// relative to the segment bases. The diversity auditor (internal/audit)
// consumes it to quantify how much the layout randomizations actually
// diversify — entropy of placement orders, padding distributions, offsets
// that survive across variants — and the image tests use it instead of
// poking at the raw placement maps.

// FuncSpan is one function's placement in the text section.
type FuncSpan struct {
	Name string `json:"name"`
	// Order is the text-section position (0 = first placed function).
	Order int `json:"order"`
	// Start is the absolute (post-ASLR) start address; Off is the
	// ASLR-independent offset from TextBase.
	Start uint64 `json:"start"`
	Off   uint64 `json:"off"`
	Len   uint64 `json:"len"`
	// BoobyTrap and Stub classify toolchain-synthesized functions; entries
	// with both false are module functions (plus the _start shim).
	BoobyTrap bool `json:"booby_trap,omitempty"`
	Stub      bool `json:"stub,omitempty"`
}

// DataSpan is one data-section symbol's placement.
type DataSpan struct {
	Name string `json:"name"`
	// Order is the data-section position (0 = first placed symbol).
	Order int `json:"order"`
	// Addr is the absolute address; Off is the offset from DataBase.
	Addr uint64   `json:"addr"`
	Off  uint64   `json:"off"`
	Size uint64   `json:"size"`
	Kind DataKind `json:"kind"`
}

// LayoutSummary is a point-in-time flattening of the image's layout, in
// placement order. It carries no pointers into the image, so callers may
// hold it beyond the image's lifetime and compare summaries across builds.
type LayoutSummary struct {
	TextBase, TextEnd uint64
	DataBase, DataEnd uint64
	// Funcs lists every placed function in text order; Data lists every
	// data symbol (globals, padding, BTRA arrays, BTDP symbols) in data
	// order.
	Funcs []FuncSpan
	Data  []DataSpan
}

// LayoutSummary flattens the image's placement into a LayoutSummary.
func (img *Image) LayoutSummary() *LayoutSummary {
	ls := &LayoutSummary{
		TextBase: img.TextBase, TextEnd: img.TextEnd,
		DataBase: img.DataBase, DataEnd: img.DataEnd,
		Funcs: make([]FuncSpan, 0, len(img.FuncOrder)),
		Data:  make([]DataSpan, 0, len(img.DataOrder)),
	}
	for i, name := range img.FuncOrder {
		pf := img.Funcs[name]
		ls.Funcs = append(ls.Funcs, FuncSpan{
			Name:      name,
			Order:     i,
			Start:     pf.Start,
			Off:       pf.Start - img.TextBase,
			Len:       pf.End - pf.Start,
			BoobyTrap: pf.F.BoobyTrap,
			Stub:      pf.F.Stub,
		})
	}
	for i, name := range img.DataOrder {
		ds := img.DataSyms[name]
		ls.Data = append(ls.Data, DataSpan{
			Name:  name,
			Order: i,
			Addr:  ds.Addr,
			Off:   ds.Addr - img.DataBase,
			Size:  ds.Size,
			Kind:  ds.Kind,
		})
	}
	return ls
}

// FuncNames returns the function names in text order. With includeSynth
// false, booby traps, stubs and the _start shim are dropped, leaving the
// module functions whose placement the shuffling knob permutes.
func (ls *LayoutSummary) FuncNames(includeSynth bool) []string {
	out := make([]string, 0, len(ls.Funcs))
	for _, f := range ls.Funcs {
		if !includeSynth && (f.BoobyTrap || f.Stub || f.Name == EntrySym) {
			continue
		}
		out = append(out, f.Name)
	}
	return out
}

// GlobalNames returns the module-global symbol names in data order —
// the permutation the global-shuffling knob randomizes.
func (ls *LayoutSummary) GlobalNames() []string {
	var out []string
	for _, d := range ls.Data {
		if d.Kind == DataGlobal {
			out = append(out, d.Name)
		}
	}
	return out
}
