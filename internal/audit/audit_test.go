package audit

import (
	"bytes"
	"strings"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/workload"
)

func testModule(t *testing.T) *tir.Module {
	t.Helper()
	b, ok := workload.ByName("nginx")
	if !ok {
		t.Fatal("nginx workload missing")
	}
	return b.Build(8)
}

func runAudit(t *testing.T, jobs int, cfg defense.Config, obs *telemetry.Observer) *Report {
	t.Helper()
	rep, err := Run(Options{
		Module:   testModule(t),
		Cfg:      cfg,
		Variants: 6,
		BaseSeed: 42,
		Eng:      exec.New(jobs, obs),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The headline determinism guarantee: the JSON report is byte-identical
// whether the variants were built serially or eight-wide.
func TestReportByteIdenticalAcrossJobs(t *testing.T) {
	cfg := defense.R2CFull()
	var serial, parallel bytes.Buffer
	if err := runAudit(t, 1, cfg, nil).WriteJSON(&serial); err != nil {
		t.Fatal(err)
	}
	if err := runAudit(t, 8, cfg, nil).WriteJSON(&parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("report differs between -jobs 1 and -jobs 8:\n--- jobs 1 ---\n%s\n--- jobs 8 ---\n%s",
			serial.String(), parallel.String())
	}
}

// Full R2C must actually diversify: distinct placement orders, register
// allocation divergence, and a survivor surface well below the baseline.
func TestFullConfigDiversifies(t *testing.T) {
	rep := runAudit(t, 4, defense.R2CFull(), nil)
	if rep.FuncOrder.Permutation.Bits <= 0 {
		t.Error("function order never changed under full R2C")
	}
	if rep.GlobalOrder.Permutation.Bits <= 0 {
		t.Error("global order never changed under full R2C")
	}
	if rep.RegAlloc.DivergedFrac <= 0 {
		t.Error("register allocation never diverged under full R2C")
	}
	if rep.NOPLen.Distinct < 2 {
		t.Errorf("NOP runs took %d distinct lengths, want ≥ 2", rep.NOPLen.Distinct)
	}
	if rep.Survivor.MeanFuncOffset >= 1 {
		t.Error("every function offset survived every pair under full R2C")
	}
}

// The unprotected baseline is the degenerate case every estimator must
// agree on: zero entropy everywhere, survivor rates pinned at 1.
func TestBaselineIsFullySurviving(t *testing.T) {
	rep := runAudit(t, 4, defense.Off(), nil)
	if rep.FuncOrder.Permutation.Bits != 0 {
		t.Errorf("baseline func-order entropy = %v, want 0", rep.FuncOrder.Permutation.Bits)
	}
	if rep.GlobalOrder.Permutation.Bits != 0 {
		t.Errorf("baseline global-order entropy = %v, want 0", rep.GlobalOrder.Permutation.Bits)
	}
	s := rep.Survivor
	for _, v := range []float64{s.MeanFuncOffset, s.MeanGlobalOffset, s.MeanGadget, s.MeanDataWord} {
		if v != 1 {
			t.Errorf("baseline survivor rate = %v, want 1 (%+v)", v, s)
		}
	}
	if s.Pairs != 6*5/2 {
		t.Errorf("pairs = %d, want %d", s.Pairs, 6*5/2)
	}
}

func TestRunValidatesOptions(t *testing.T) {
	eng := exec.New(1, nil)
	if _, err := Run(Options{Variants: 4, Eng: eng}); err == nil {
		t.Error("nil module accepted")
	}
	if _, err := Run(Options{Module: testModule(t), Variants: 4}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := Run(Options{Module: testModule(t), Variants: 1, Eng: eng}); err == nil {
		t.Error("single variant accepted")
	}
}

// Publish must land the audit histograms in the registry and serve them in
// Prometheus text exposition format, alongside entropy/survivor/knob gauges.
func TestPublishServesPrometheusHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	obs := &telemetry.Observer{Registry: reg}
	runAudit(t, 4, defense.R2CFull(), obs)

	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	histograms := []string{"audit_btra_pre", "audit_nop_len", "audit_btdp_per_func"}
	for _, h := range histograms {
		if !strings.Contains(out, h+"_bucket") {
			t.Errorf("exposition missing %s_bucket", h)
		}
		if !strings.Contains(out, h+"_count") || !strings.Contains(out, h+"_sum") {
			t.Errorf("exposition missing %s _count/_sum series", h)
		}
		if !strings.Contains(out, `le="+Inf"`) {
			t.Errorf("exposition missing +Inf bucket")
		}
	}
	for _, g := range []string{"audit_entropy_bits", "audit_survivor_mean", "audit_knob"} {
		if !strings.Contains(out, g) {
			t.Errorf("exposition missing gauge %s", g)
		}
	}
	// Spot-check a knob gauge: full R2C inserts 10 BTRAs per call site.
	if g := reg.Gauge("audit.knob", "knob", "BTRAsPerCall", "config", "r2c-full"); g.Value() != 10 {
		t.Errorf("BTRAsPerCall knob gauge = %v, want 10", g.Value())
	}
}

// WriteText must render without panicking and carry the headline sections.
func TestWriteText(t *testing.T) {
	rep := runAudit(t, 4, defense.R2CFull(), nil)
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"diversity audit", "placement entropy", "survivor surface"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, buf.String())
		}
	}
}
