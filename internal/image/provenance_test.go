package image

import (
	"testing"

	"r2c/internal/defense"
	"r2c/internal/isa"
)

// Every planted BTRA value must resolve through the provenance index back to
// at least one call-site slot, and each reported origin must re-derive the
// exact detonation address — the property the forensic table relies on.
func TestBTRAOriginsResolveEveryPlantedValue(t *testing.T) {
	img := link(t, defense.R2CPush(), 5)
	planted := 0
	for _, name := range img.FuncOrder {
		pf := img.Funcs[name]
		for i := range pf.F.Instrs {
			in := &pf.F.Instrs[i]
			if in.Kind != isa.KPushImm || !in.BTRA {
				continue
			}
			planted++
			origins := img.BTRAOrigins(in.Imm)
			if len(origins) == 0 {
				t.Fatalf("planted BTRA %#x has no origin", in.Imm)
			}
			for _, o := range origins {
				tf, ok := img.Funcs[o.TrapFunc]
				if !ok {
					t.Fatalf("origin trap func %q not in image", o.TrapFunc)
				}
				if !tf.F.BoobyTrap {
					t.Errorf("origin trap func %q is not a booby trap", o.TrapFunc)
				}
				if tf.Start+o.TrapOff != in.Imm {
					t.Errorf("origin %s#%d slot %d re-derives %#x, want %#x",
						o.Caller, o.CallSiteID, o.Slot, tf.Start+o.TrapOff, in.Imm)
				}
				if o.Caller == "" {
					t.Error("origin without a planting caller")
				}
				if o.Setup != "push" && o.Setup != "avx2" {
					t.Errorf("origin setup %q", o.Setup)
				}
			}
		}
	}
	if planted == 0 {
		t.Fatal("config planted no push BTRAs")
	}

	// Addresses the toolchain never planted resolve to nothing: a real
	// function entry is not a BTRA.
	if got := img.BTRAOrigins(img.Entry); len(got) != 0 {
		t.Errorf("entry address has %d BTRA origins", len(got))
	}
}

// Origins must distinguish pre slots (above the return address) from the
// callee-chosen post-offset words, because the slot side is what the
// Section 7.3 consistency checks sample.
func TestBTRAOriginsPreSlotClassification(t *testing.T) {
	img := link(t, defense.R2CPush(), 5)
	pre, post := 0, 0
	for _, name := range img.FuncOrder {
		f := img.Funcs[name].F
		for i := range f.CallSites {
			cs := &f.CallSites[i]
			for slot, w := range cs.BTRAs {
				if !w.BTRA || w.Sym == isa.NoSym {
					continue
				}
				addr := img.Funcs[img.Prog.Syms[w.Sym]].Start + uint64(w.Off)
				for _, o := range img.BTRAOrigins(addr) {
					if o.CallSiteID != cs.ID || o.Slot != slot {
						continue
					}
					if want := slot < cs.Pre; o.Pre != want {
						t.Errorf("site %d slot %d: Pre=%v, want %v", cs.ID, slot, o.Pre, want)
					}
					if o.Pre {
						pre++
					} else {
						post++
					}
				}
			}
		}
	}
	if pre == 0 || post == 0 {
		t.Errorf("classification degenerate: pre=%d post=%d", pre, post)
	}
}
