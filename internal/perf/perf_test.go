package perf

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"r2c/internal/telemetry"
)

func sampleSnapshot() *telemetry.Snapshot {
	reg := telemetry.NewRegistry()
	reg.Gauge("bench.figure6.geomean_pct", "machine", "epyc").Set(7.6)
	reg.Gauge("bench.table3.detection_rate", "defense", "r2c-full").Set(0.69)
	reg.Gauge("bench.table2.calls", "benchmark", "gcc").Set(41234)
	reg.Counter("vm.instructions").Add(123456)
	cyc := reg.Histogram("exec.run.cycles", telemetry.CycleBounds)
	cyc.Observe(2e6)
	cyc.Observe(3e6)
	lat := reg.Histogram("exec.cell.seconds", telemetry.LatencyBounds)
	lat.Observe(0.01)
	lat.Observe(0.03)
	lat.Observe(0.5)
	snap := reg.Snapshot()
	return snap
}

func TestFromSnapshotHarvest(t *testing.T) {
	b := FromSnapshot("figure6", sampleSnapshot(), Collect(), map[string]string{"scale": "8"})
	cases := []struct {
		key, better string
	}{
		{"bench.figure6.geomean_pct{machine=epyc}", BetterLower},
		{"bench.table3.detection_rate{defense=r2c-full}", BetterHigher},
		{"bench.table2.calls{benchmark=gcc}", BetterExact},
		{"vm.instructions", BetterLower},
		{"exec.run.cycles.count", BetterExact},
		{"exec.run.cycles.sum", BetterLower},
	}
	for _, tc := range cases {
		m, ok := b.Metrics[tc.key]
		if !ok {
			t.Errorf("metric %q not harvested; have %v", tc.key, b.MetricKeys())
			continue
		}
		if m.Better != tc.better {
			t.Errorf("metric %q better = %s, want %s", tc.key, m.Better, tc.better)
		}
	}
	// Wall-clock histograms are not baseline material.
	for k := range b.Metrics {
		if strings.Contains(k, ".seconds") {
			t.Errorf("wall-clock metric %q harvested", k)
		}
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	b := FromSnapshot("figure6", sampleSnapshot(), Collect(), map[string]string{"scale": "8", "runs": "1"})
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "figure6" || got.Schema != SchemaVersion || got.Params["scale"] != "8" {
		t.Errorf("roundtrip lost fields: %+v", got)
	}
	if len(got.Metrics) != len(b.Metrics) {
		t.Errorf("roundtrip lost entries: %d/%d metrics", len(got.Metrics), len(b.Metrics))
	}

	// Saving the identical baseline again must be byte-identical (no git
	// churn from map iteration order).
	path2 := filepath.Join(dir, "BENCH_test2.json")
	if err := b.Save(path2); err != nil {
		t.Fatal(err)
	}
	d1, _ := os.ReadFile(path)
	d2, _ := os.ReadFile(path2)
	if !bytes.Equal(d1, d2) {
		t.Errorf("re-saved baseline differs byte-wise")
	}
}

func TestLoadRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := Load(write("wrong-schema.json", `{"schema": 99, "label": "x", "metrics": {}}`)); err == nil {
		t.Errorf("Load accepted wrong schema version")
	}
	// A schema-1 file carries wall-clock phases and per-metric classes.
	v1 := `{"schema": 1, "label": "x", "metrics": {"m": {"value": 1, "class": "deterministic", "better": "lower"}},
		"phases": {"exec.cell.seconds": {"count": 1, "p50_s": 0.1}}}`
	if _, err := Load(write("schema-1.json", v1)); err == nil {
		t.Errorf("Load accepted a schema-1 baseline")
	}
	if _, err := Load(write("no-label.json", fmt.Sprintf(`{"schema": %d, "metrics": {}}`, SchemaVersion))); err == nil {
		t.Errorf("Load accepted unlabeled baseline")
	}
	if _, err := Load(write("garbage.json", `{{{`)); err == nil {
		t.Errorf("Load accepted malformed JSON")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Errorf("Load accepted a missing file")
	}
}

func baselineWith(metrics map[string]Metric) *Baseline {
	return &Baseline{Schema: SchemaVersion, Label: "t", Provenance: Collect(), Metrics: metrics}
}

// TestJudgeVerdicts pins each row's label and that any drift beyond the
// allowance — improved as much as regressed — fails the comparison.
func TestJudgeVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		better   string
		old, new float64
		want     Verdict
	}{
		{"stable", BetterLower, 100, 100 * (1 + 1e-12), VerdictOK},  // a last-ulp move is within the 1e-9 allowance
		{"half percent", BetterLower, 100, 100.5, VerdictRegressed}, // any real drift fails
		{"lower regressed", BetterLower, 100, 150, VerdictRegressed},
		{"lower improved", BetterLower, 100, 50, VerdictImproved},
		{"higher regressed", BetterHigher, 0.5, 0.1, VerdictRegressed},
		{"higher improved", BetterHigher, 0.5, 0.9, VerdictImproved},
		{"exact drifted", BetterExact, 42, 43, VerdictMismatch},
		{"zero stays zero", BetterHigher, 0, 0, VerdictOK},
		{"lower from zero", BetterLower, 0, 0.25, VerdictRegressed},
		{"higher from zero", BetterHigher, 0, 0.25, VerdictImproved},
		{"exact from zero", BetterExact, 0, 1, VerdictMismatch},
	} {
		rep := Judge(baselineWith(map[string]Metric{"m": {Value: tc.old, Better: tc.better}}),
			baselineWith(map[string]Metric{"m": {Value: tc.new, Better: tc.better}}))
		if len(rep.Deltas) != 1 || rep.Deltas[0].Verdict != tc.want {
			t.Errorf("%s: deltas %+v, want one %q row", tc.name, rep.Deltas, tc.want)
			continue
		}
		if failed := rep.Failed(); failed != (tc.want != VerdictOK) {
			t.Errorf("%s: Failed() = %v with verdict %q", tc.name, failed, tc.want)
		}
	}

	// A metric the fresh run lost fails; one it gained is reported only.
	gone := Judge(baselineWith(map[string]Metric{"m": {Value: 7, Better: BetterLower}}), baselineWith(map[string]Metric{}))
	if len(gone.Deltas) != 1 || gone.Deltas[0].Verdict != VerdictMissing || !gone.Failed() {
		t.Errorf("missing metric: %+v, failed %v", gone.Deltas, gone.Failed())
	}
	added := Judge(baselineWith(map[string]Metric{}), baselineWith(map[string]Metric{"m": {Value: 7, Better: BetterLower}}))
	if len(added.Deltas) != 1 || added.Deltas[0].Verdict != VerdictAdded || added.Failed() {
		t.Errorf("added metric: %+v, failed %v", added.Deltas, added.Failed())
	}

	// A baseline judged against itself is all ok, whatever the hosts.
	b := FromSnapshot("figure6", sampleSnapshot(), Collect(), nil)
	other := *b
	other.Provenance.NumCPU += 64
	clean := Judge(b, &other)
	if clean.Failed() || clean.Counts()[VerdictOK] != len(b.Metrics) {
		t.Errorf("self-comparison: %+v", clean.Deltas)
	}
	var buf bytes.Buffer
	clean.WriteTable(&buf)
	if want := fmt.Sprintf("[%d ok, 0 regressed, 0 improved, 0 mismatch, 0 missing, 0 added]", len(b.Metrics)); !strings.Contains(buf.String(), want) {
		t.Errorf("table lacks %q:\n%s", want, buf.String())
	}
}

// TestDeterministicJSONExcludesTimingAndNaN: the deterministic core holds
// neither the snapshot's wall-clock histograms, NaN values nor the host
// provenance.
func TestDeterministicJSONExcludesTimingAndNaN(t *testing.T) {
	b := FromSnapshot("figure6", sampleSnapshot(), Collect(), nil)
	b.Metrics["det.nan"] = Metric{Value: math.NaN(), Better: BetterLower}
	data, err := b.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, "bench.figure6.geomean_pct") {
		t.Errorf("deterministic metric missing:\n%s", s)
	}
	for _, banned := range []string{"det.nan", "exec.cell.seconds", "provenance", "go_version"} {
		if strings.Contains(s, banned) {
			t.Errorf("DeterministicJSON leaked %q:\n%s", banned, s)
		}
	}
}

func TestProvenance(t *testing.T) {
	p := Collect()
	if p.GoVersion == "" || p.GOOS == "" || p.GOARCH == "" || p.NumCPU <= 0 {
		t.Errorf("Collect() incomplete: %+v", p)
	}
	m := p.Meta()
	for _, k := range []string{"go_version", "goos", "goarch", "num_cpu"} {
		if m[k] == "" {
			t.Errorf("Meta() missing %q: %v", k, m)
		}
	}
	if diff := p.EnvDiff(p); len(diff) != 0 {
		t.Errorf("EnvDiff(self) = %v", diff)
	}
	o := p
	o.GOARCH = "riscv64"
	o.GitDescribe = p.GitDescribe + "-other"
	diff := p.EnvDiff(o)
	if len(diff) != 1 || !strings.Contains(diff[0], "goarch") {
		t.Errorf("EnvDiff = %v, want only the goarch difference (git describe excluded)", diff)
	}
}
