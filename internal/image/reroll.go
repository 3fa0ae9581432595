package image

import (
	"errors"
	"maps"
	"slices"

	"r2c/internal/codegen"
	"r2c/internal/isa"
	"r2c/internal/rng"
)

// Reroll returns a copy of img whose call-site BTRA sets are drawn afresh
// from seed — the InsecureDynamicBTRAs ablation (Section 4.1 property B:
// "more dynamism is less effective"). Real return addresses stay; only push
// immediates and AVX-array decoy words change. img itself is not written,
// so a cached image may be rerolled by any number of callers at once.
//
// The copy shares everything the reroll leaves alone: only functions with
// BTRA push immediates get their own Func and Instrs, DataInit is cloned to
// take the new array words, and Code is predecoded afresh. Prog stays
// img's, so its Funcs keep the parent's immediates; read the copy's code
// through Funcs. Values come from rng.New(seed): push immediates in
// FuncOrder first, then the BTRA words of Prog.Blobs.
func (img *Image) Reroll(seed uint64) (*Image, error) {
	pool := img.Prog.Config.BTRAPoolSize
	if pool <= 0 {
		return nil, errors.New("image: no booby-trap pool")
	}
	r := rng.New(seed)
	fresh := func() uint64 {
		pf := img.Funcs[codegen.BoobyTrapSym(r.Intn(pool))]
		return pf.Start + 4*uint64(r.Intn(codegen.TrapFuncLen))
	}
	cp := &Image{
		Prog:     img.Prog,
		TextBase: img.TextBase, TextEnd: img.TextEnd,
		DataBase: img.DataBase, DataEnd: img.DataEnd,
		HeapBase: img.HeapBase, HeapEnd: img.HeapEnd,
		StackLow: img.StackLow, StackHi: img.StackHi,
		Entry:      img.Entry,
		Funcs:      maps.Clone(img.Funcs),
		FuncOrder:  img.FuncOrder,
		DataSyms:   img.DataSyms,
		DataOrder:  img.DataOrder,
		DataInit:   maps.Clone(img.DataInit),
		CallSiteRA: img.CallSiteRA,
		Unwind:     img.Unwind,
		placed:     slices.Clone(img.placed),
	}
	// Push-mode immediates live in (execute-only) text.
	for i, name := range img.FuncOrder {
		pf := img.Funcs[name]
		var instrs []isa.Instr
		for j := range pf.F.Instrs {
			if in := &pf.F.Instrs[j]; in.Kind != isa.KPushImm || !in.BTRA {
				continue
			}
			if instrs == nil {
				instrs = make([]isa.Instr, len(pf.F.Instrs))
				copy(instrs, pf.F.Instrs)
			}
			v := fresh()
			instrs[j].Imm, instrs[j].Target = v, v
		}
		if instrs == nil {
			continue
		}
		f := *pf.F
		f.Instrs = instrs
		npf := *pf
		npf.F = &f
		cp.Funcs[name], cp.placed[i] = &npf, &npf
	}
	cp.RebuildCode()
	// AVX-mode arrays live in the data section.
	for _, b := range img.Prog.Blobs {
		ds := img.DataSyms[b.Name]
		for i, w := range b.Words {
			if w.BTRA {
				cp.DataInit[ds.Addr+uint64(i)*8] = fresh()
			}
		}
	}
	return cp, nil
}
