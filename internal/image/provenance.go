package image

// Trap provenance: link-time metadata that answers, for a detonated booby
// trap, "which defense artifact did the attacker touch?". A RET consuming a
// BTRA lands exactly on the recorded word value, so resolving every
// call-site BTRA slot to its absolute address at link time yields an exact
// detonation-PC → planting-site index. The index is forensic only — the
// runtime never consults it on the simulation's hot path.

import "r2c/internal/isa"

// BTRAOrigin identifies one call-site booby-trap slot: the protected call
// site that planted a BTRA and where that slot sits relative to the return
// address. One trap address can have several origins (trap-function offsets
// are drawn from a small pool), so forensics reports all of them.
type BTRAOrigin struct {
	// Caller is the function containing the planting call site; Callee is
	// its target ("" for indirect sites).
	Caller     string
	Callee     string
	CallSiteID int
	// Slot is the index into the site's BTRA list, topmost stack word
	// first; Pre reports whether the slot sits above the return address
	// (slots below it are the callee-chosen post-offset words).
	Slot int
	Pre  bool
	// Setup is how the site materialized its BTRAs: "push" or "avx2".
	Setup string
	// TrapFunc/TrapOff locate the detonation point inside the booby-trap
	// function the slot points into.
	TrapFunc string
	TrapOff  uint64
}

// buildBTRAOrigins indexes every call-site BTRA slot by its resolved
// absolute address. Iteration follows the deterministic text layout order,
// so the per-address origin lists are reproducible for a given image.
func (img *Image) buildBTRAOrigins() {
	idx := make(map[uint64][]BTRAOrigin)
	for _, name := range img.FuncOrder {
		f := img.Funcs[name].F
		for i := range f.CallSites {
			cs := &f.CallSites[i]
			setup := "push"
			if cs.ArraySym != "" {
				setup = "avx2"
			}
			for slot, w := range cs.BTRAs {
				if !w.BTRA || w.Sym == isa.NoSym {
					continue
				}
				trap := img.Prog.Syms[w.Sym]
				pf, ok := img.Funcs[trap]
				if !ok {
					continue
				}
				addr := pf.Start + uint64(w.Off)
				idx[addr] = append(idx[addr], BTRAOrigin{
					Caller:     cs.Caller,
					Callee:     cs.Callee,
					CallSiteID: cs.ID,
					Slot:       slot,
					Pre:        slot < cs.Pre,
					Setup:      setup,
					TrapFunc:   trap,
					TrapOff:    uint64(w.Off),
				})
			}
		}
	}
	img.btraOrigins = idx
}

// BTRAOrigins returns every call-site BTRA slot whose resolved value is
// addr — the provenance of a TrapBTRA detonation at pc=addr. The index is
// built once per image on first use; images are shared between cells, so
// the build is once-guarded and lookups are safe for concurrent use.
//
// The index reflects the link-time BTRA sets. A Reroll copy keeps the
// call-site metadata but not the values, so its detonation addresses may
// resolve to no origin — forensics then reports the trap function only.
func (img *Image) BTRAOrigins(addr uint64) []BTRAOrigin {
	img.provOnce.Do(img.buildBTRAOrigins)
	return img.btraOrigins[addr]
}
