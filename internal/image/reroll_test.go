package image

import (
	"maps"
	"reflect"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/isa"
)

// TestRerollPreservesRAs rerolls a push-mode and an AVX-mode image: real
// return addresses keep their values, some BTRA changes, every BTRA still
// points into a booby trap, and the parent image reads exactly as before.
func TestRerollPreservesRAs(t *testing.T) {
	for _, cfg := range []defense.Config{defense.R2CPush(), defense.R2CFull()} {
		t.Run(cfg.Name, func(t *testing.T) {
			img := link(t, cfg, 6)
			type snap struct{ ras, btras []uint64 }
			take := func(img *Image) snap {
				var s snap
				for _, name := range img.FuncOrder {
					f := img.Funcs[name].F
					for i := range f.Instrs {
						in := &f.Instrs[i]
						if in.Kind != 0 && in.RetAddr {
							s.ras = append(s.ras, in.Imm)
						}
						if in.Kind == isa.KPushImm && in.BTRA {
							s.btras = append(s.btras, in.Imm)
						}
					}
				}
				for _, b := range img.Prog.Blobs {
					ds := img.DataSyms[b.Name]
					for i, w := range b.Words {
						v := img.DataInit[ds.Addr+uint64(i)*8]
						if w.RetAddr {
							s.ras = append(s.ras, v)
						} else if w.BTRA {
							s.btras = append(s.btras, v)
						}
					}
				}
				return s
			}
			before := take(img)
			if len(before.btras) == 0 {
				t.Fatal("no BTRAs to reroll")
			}
			initBefore := maps.Clone(img.DataInit)
			opsBefore := append(img.Code.Ops[:0:0], img.Code.Ops...)

			cp, err := img.Reroll(777)
			if err != nil {
				t.Fatal(err)
			}
			after := take(cp)
			if !reflect.DeepEqual(before.ras, after.ras) {
				t.Fatal("reroll changed a real return address")
			}
			changed := 0
			for i := range before.btras {
				if before.btras[i] != after.btras[i] {
					changed++
				}
				if !cp.IsBoobyTrapAddr(after.btras[i]) {
					t.Fatalf("rerolled BTRA %#x does not point into a booby trap", after.btras[i])
				}
			}
			if changed == 0 {
				t.Fatal("reroll changed nothing")
			}

			if !reflect.DeepEqual(take(img), before) {
				t.Error("reroll wrote the parent's instructions or array words")
			}
			if !maps.Equal(img.DataInit, initBefore) {
				t.Error("reroll wrote the parent's DataInit")
			}
			if !reflect.DeepEqual(img.Code.Ops, opsBefore) {
				t.Error("reroll wrote the parent's predecoded ops")
			}
			if reflect.DeepEqual(cp.Code.Ops, opsBefore) != (cfg.BTRASetup != defense.BTRAPush) {
				t.Error("the copy's predecoded ops do not follow its push immediates")
			}
			again, err := img.Reroll(777)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(take(again), after) {
				t.Error("two rerolls of one image under one seed differ")
			}
		})
	}
}
