package rt

import (
	"strings"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/isa"
	"r2c/internal/mem"
)

// BTRA detonations resolve through the image's link-time index to the
// planting call site; BTDP faults resolve against the process's load-time
// guard-page and published-value ground truth.
func TestTrapProvenanceResolution(t *testing.T) {
	p := buildProcess(t, defense.R2CFull(), 3)
	img := p.Img

	// Find one planted BTRA address via the image index itself (the rt test
	// module is small, but every call site plants a full set).
	var btraAddr uint64
	for _, name := range img.FuncOrder {
		f := img.Funcs[name].F
		for i := range f.CallSites {
			for _, w := range f.CallSites[i].BTRAs {
				if w.BTRA && w.Sym != isa.NoSym {
					btraAddr = img.Funcs[img.Prog.Syms[w.Sym]].Start + uint64(w.Off)
				}
			}
		}
	}
	if btraAddr == 0 {
		t.Fatal("no planted BTRA in test image")
	}
	pv := p.TrapProvenance(TrapEvent{Kind: TrapBTRA, PC: btraAddr})
	if len(pv.Origins) == 0 {
		t.Fatal("planted BTRA resolved to no origin")
	}
	if !img.Funcs[pv.Func].F.BoobyTrap {
		t.Errorf("provenance func %q is not the booby trap", pv.Func)
	}
	if s := pv.String(); !strings.Contains(s, "planted by") {
		t.Errorf("BTRA provenance %q does not name the planting site", s)
	}

	// A published BTDP value faults as "array" with its slot index.
	if len(p.BTDPValues) == 0 || len(p.GuardPages) == 0 {
		t.Fatal("r2c-full process has no BTDP ground truth")
	}
	pv = p.TrapProvenance(TrapEvent{Kind: TrapBTDP, Addr: p.BTDPValues[0]})
	if pv.Source != "array" || pv.SlotIndex != 0 {
		t.Errorf("published BTDP resolved to (%s, %d), want (array, 0)", pv.Source, pv.SlotIndex)
	}
	if pv.GuardPage != mem.AlignDown(p.BTDPValues[0], mem.PageSize) {
		t.Errorf("guard page %#x not page-aligned to the fault", pv.GuardPage)
	}
	if pv.PageIndex < 0 {
		t.Error("published BTDP fault not attributed to a kept guard page")
	}

	// A derived address inside a guard page (not a planted value) reports
	// "guard": the attacker computed it, nothing published it.
	derived := p.GuardPages[0] + 9
	for _, v := range p.BTDPValues {
		if v == derived {
			t.Skip("derived probe collides with a published value")
		}
	}
	pv = p.TrapProvenance(TrapEvent{Kind: TrapBTDP, Addr: derived})
	if pv.Source == "array" {
		t.Errorf("derived address attributed to the published array")
	}
	if pv.PageIndex != 0 || pv.PageOff != 9 {
		t.Errorf("derived fault located at page %d +%#x, want 0 +0x9", pv.PageIndex, pv.PageOff)
	}

	// Non-BTRA trap kinds report the owning function only.
	pv = p.TrapProvenance(TrapEvent{Kind: TrapProlog, PC: img.Entry})
	if pv.Func == "" || len(pv.Origins) != 0 {
		t.Errorf("prolog provenance = %+v, want owning function only", pv)
	}
}
