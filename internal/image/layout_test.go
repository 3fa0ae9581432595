package image

import (
	"reflect"
	"testing"

	"r2c/internal/defense"
)

func TestLayoutSummaryMatchesPlacement(t *testing.T) {
	img := link(t, defense.R2CFull(), 21)
	ls := img.LayoutSummary()

	if ls.TextBase != img.TextBase || ls.TextEnd != img.TextEnd ||
		ls.DataBase != img.DataBase || ls.DataEnd != img.DataEnd {
		t.Fatal("segment bounds differ from image")
	}
	if len(ls.Funcs) != len(img.FuncOrder) {
		t.Fatalf("summary has %d funcs, image %d", len(ls.Funcs), len(img.FuncOrder))
	}
	for i, fs := range ls.Funcs {
		pf := img.Funcs[img.FuncOrder[i]]
		if fs.Name != img.FuncOrder[i] || fs.Order != i {
			t.Fatalf("func %d: name/order mismatch: %+v", i, fs)
		}
		if fs.Start != pf.Start || fs.Len != pf.End-pf.Start || fs.Off != pf.Start-img.TextBase {
			t.Fatalf("func %s: span mismatch: %+v", fs.Name, fs)
		}
		if fs.BoobyTrap != pf.F.BoobyTrap || fs.Stub != pf.F.Stub {
			t.Fatalf("func %s: classification mismatch", fs.Name)
		}
	}
	if len(ls.Data) != len(img.DataOrder) {
		t.Fatalf("summary has %d data syms, image %d", len(ls.Data), len(img.DataOrder))
	}
	for i, d := range ls.Data {
		sym := img.DataSyms[img.DataOrder[i]]
		if d.Name != sym.Name || d.Order != i || d.Addr != sym.Addr ||
			d.Off != sym.Addr-img.DataBase || d.Size != sym.Size || d.Kind != sym.Kind {
			t.Fatalf("data %d: mismatch: %+v vs %+v", i, d, sym)
		}
	}
}

func TestLayoutSummaryFuncNames(t *testing.T) {
	img := link(t, defense.R2CFull(), 22)
	ls := img.LayoutSummary()

	all := ls.FuncNames(true)
	if len(all) != len(img.FuncOrder) || !reflect.DeepEqual(all, img.FuncOrder) {
		t.Fatal("FuncNames(true) != FuncOrder")
	}
	mod := ls.FuncNames(false)
	if len(mod) == 0 || len(mod) >= len(all) {
		t.Fatalf("FuncNames(false) = %d names (all = %d)", len(mod), len(all))
	}
	for _, name := range mod {
		pf := img.Funcs[name]
		if pf.F.BoobyTrap || pf.F.Stub || name == EntrySym {
			t.Fatalf("FuncNames(false) kept synthesized function %s", name)
		}
	}
	// The test module has exactly leaf and main as module functions.
	seen := map[string]bool{}
	for _, n := range mod {
		seen[n] = true
	}
	if !seen["leaf"] || !seen["main"] {
		t.Fatalf("module functions missing from %v", mod)
	}
}

func TestLayoutSummaryDataQueries(t *testing.T) {
	img := link(t, defense.R2CFull(), 23)
	ls := img.LayoutSummary()

	globals := ls.GlobalNames()
	want := map[string]bool{"g1": true, "g2": true, "dp": true, "fp": true}
	if len(globals) != len(want) {
		t.Fatalf("GlobalNames = %v", globals)
	}
	for _, g := range globals {
		if !want[g] {
			t.Fatalf("unexpected global %q", g)
		}
	}
	if got := dataKindCount(ls, DataBTDPDecoy); got != img.Prog.Config.BTDPDataDecoys {
		t.Errorf("decoy count = %d, want %d", got, img.Prog.Config.BTDPDataDecoys)
	}
	for _, d := range ls.Data {
		if d.Kind == DataPad && (d.Size == 0 || d.Size%8 != 0) {
			t.Errorf("pad %s: size %d not a positive multiple of 8", d.Name, d.Size)
		}
	}
	leaf := 0
	for _, fs := range ls.Funcs {
		if fs.Name == "leaf" {
			leaf++
			if fs.Start != img.Funcs["leaf"].Start {
				t.Errorf("leaf span starts at %#x, image at %#x", fs.Start, img.Funcs["leaf"].Start)
			}
		}
	}
	if leaf != 1 {
		t.Errorf("summary has %d leaf spans, want 1", leaf)
	}
}

func TestLayoutSummaryIsDetached(t *testing.T) {
	// Summaries must be safe to hold and mutate without touching the image.
	img := link(t, defense.Off(), 24)
	ls := img.LayoutSummary()
	origFirst := img.FuncOrder[0]
	ls.Funcs[0].Name = "clobbered"
	ls.Data[0].Size = 0xdead
	if img.FuncOrder[0] != origFirst {
		t.Fatal("summary mutation leaked into image")
	}
	if img.DataSyms[img.DataOrder[0]].Size == 0xdead {
		t.Fatal("summary mutation leaked into data syms")
	}
}
