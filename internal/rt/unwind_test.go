package rt

import (
	"testing"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/workload"
)

// reverseRAMap is the reverse map the unwinder used to rebuild on every
// call — return-address value to call site, from CallSiteRA — kept here as
// the oracle for callSiteAt.
func reverseRAMap(img *image.Image) map[uint64]*codegen.CallSite {
	byRA := make(map[uint64]*codegen.CallSite)
	for _, name := range img.FuncOrder {
		f := img.Funcs[name].F
		for i := range f.CallSites {
			cs := &f.CallSites[i]
			if ra, ok := img.CallSiteRA[cs.ID]; ok {
				byRA[ra] = cs
			}
		}
	}
	return byRA
}

// TestCallSiteAtMatchesReverseMap checks the unwinder's RA-to-call-site
// resolution against the reverse map, over every real return address and
// every address a forged one would plausibly hold: each instruction
// boundary and function end (booby-trap functions included), the BTDP
// values and the data-section decoys.
func TestCallSiteAtMatchesReverseMap(t *testing.T) {
	cfgs := []defense.Config{defense.Off(), defense.R2CFull(), defense.R2CPush(), defense.BTDPOnly()}
	for _, cfg := range cfgs {
		for _, b := range workload.SPEC() {
			img := linkModule(t, b.Build(8), cfg, 3)
			snap, err := Load(img, 11, nil)
			if err != nil {
				t.Fatal(err)
			}
			p := snap.Fork(nil)
			oracle := reverseRAMap(img)

			var addrs []uint64
			for _, ra := range img.CallSiteRA {
				addrs = append(addrs, ra)
			}
			traps := 0
			for _, name := range img.FuncOrder {
				pf := img.Funcs[name]
				addrs = append(addrs, pf.InstrAddrs...)
				addrs = append(addrs, pf.End, pf.Start-1)
				if pf.F.BoobyTrap {
					for a := pf.Start; a < pf.End; a++ {
						addrs = append(addrs, a)
						traps++
					}
				}
			}
			addrs = append(addrs, p.BTDPValues...)
			addrs = append(addrs, p.DecoyVals...)
			addrs = append(addrs, 0, img.TextBase, img.TextEnd)

			hits := 0
			for _, a := range addrs {
				want := oracle[a]
				if got := p.callSiteAt(a); got != want {
					t.Fatalf("%s/%s: callSiteAt(%#x) = %v, reverse map %v", b.Name, cfg.Name, a, got, want)
				}
				if want != nil {
					hits++
				}
			}
			if hits < len(oracle) {
				t.Fatalf("%s/%s: resolved %d addresses, reverse map has %d", b.Name, cfg.Name, hits, len(oracle))
			}
			if cfg.BTRAEnabled() && traps == 0 {
				t.Fatalf("%s/%s: no booby-trap addresses probed", b.Name, cfg.Name)
			}
		}
	}
}
