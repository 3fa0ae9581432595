package bench

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// quickOpt shrinks workloads so the drivers can be exercised in unit tests.
func quickOpt() Options { return Options{Scale: 16, Runs: 1} }

// TestScaleHonoursCancel holds that a cancelled run context stops Scale's
// runs: Ctrl-C must reach every experiment's VM, not only RunCells'.
func TestScaleHonoursCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := quickOpt()
	opt.Ctx = ctx
	if _, err := Scale(opt, 200); !errors.Is(err, context.Canceled) {
		t.Fatalf("Scale under a cancelled context returned %v, want context.Canceled", err)
	}
}

func TestTable1Rows(t *testing.T) {
	if testing.Short() {
		t.Skip("perf harness")
	}
	rows, err := Table1(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Push", "AVX", "BTDP", "Prolog", "Layout"}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Name != want[i] {
			t.Errorf("row %d = %s, want %s", i, r.Name, want[i])
		}
		if r.Geomean < 0.97 || r.Geomean > 1.5 {
			t.Errorf("%s geomean %.3f implausible", r.Name, r.Geomean)
		}
		if r.Max < r.Geomean-0.02 {
			t.Errorf("%s max %.3f below geomean %.3f", r.Name, r.Max, r.Geomean)
		}
	}
	// The push setup must cost more than the AVX2 setup (the Table 1
	// headline).
	if rows[0].Geomean <= rows[1].Geomean {
		t.Errorf("push (%.3f) should exceed AVX (%.3f)", rows[0].Geomean, rows[1].Geomean)
	}
}

func TestTable2RowsAndOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("perf harness")
	}
	var buf bytes.Buffer
	opt := quickOpt()
	opt.Out = &buf
	rows, err := Table2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	// nab must dominate and lbm must be tiny, as in the paper.
	var nab, lbm Table2Row
	for _, r := range rows {
		if r.Benchmark == "nab" {
			nab = r
		}
		if r.Benchmark == "lbm" {
			lbm = r
		}
	}
	if nab.Measured <= lbm.Measured*100 {
		t.Errorf("nab (%d) should dwarf lbm (%d)", nab.Measured, lbm.Measured)
	}
	if !strings.Contains(buf.String(), "perlbench") {
		t.Error("table output missing rows")
	}
}

func TestOverheadsStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("perf harness")
	}
	ov := Overheads{Config: "x", ByBench: map[string]float64{"a": 1.1, "b": 1.2, "c": 1.0}}
	name, max := ov.Max()
	if name != "b" || max != 1.2 {
		t.Errorf("Max = %s %v", name, max)
	}
	g := ov.Geomean()
	if g < 1.09 || g > 1.11 {
		t.Errorf("geomean = %v", g)
	}
}

func TestVerdicts(t *testing.T) {
	if Protected.String() != "●" || Partial.String() != "◐" || Vulnerable.String() != "○" {
		t.Error("verdict glyphs wrong")
	}
}

func TestSideChannelExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("security harness")
	}
	r, err := SideChannel(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.StaticIdentified {
		t.Error("Section 7.3: the crash side channel must identify the RA against a static worker pool")
	}
	if r.FreshIdentified {
		t.Error("load-time re-randomization must defeat the crash side channel")
	}
	if r.StaticAttempts > 12 {
		t.Errorf("identification took %d restarts, should be ≤ R+1", r.StaticAttempts)
	}
}

func TestProbMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("security harness")
	}
	pts, err := Prob(Options{}, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		// Within a factor of two of the analytic value (Monte-Carlo noise
		// plus the alignment BTRA).
		if p.PerFrame > 2*p.Analytic || p.PerFrame < p.Analytic/2.5 {
			t.Errorf("R=%d: per-frame %.4f vs analytic %.4f", p.R, p.PerFrame, p.Analytic)
		}
	}
}
