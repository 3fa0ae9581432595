package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"r2c/internal/perf"
	"r2c/internal/telemetry"
)

// harvestFigure6 runs Figure6 at the given worker-pool width into a fresh
// registry and returns the deterministic core of the harvested baseline.
func harvestFigure6(t *testing.T, jobs int) []byte {
	t.Helper()
	obs := &telemetry.Observer{Registry: telemetry.NewRegistry()}
	opt := Options{Scale: 16, Runs: 1, Jobs: jobs, Obs: obs, Out: io.Discard}
	if _, err := Figure6(opt); err != nil {
		t.Fatal(err)
	}
	snap := obs.Registry.Snapshot()
	b := perf.FromSnapshot("figure6", snap, perf.Provenance{}, map[string]string{"scale": "16", "runs": "1"})
	data, err := b.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Metrics) == 0 {
		t.Fatal("harvested baseline has no metrics")
	}
	return data
}

// TestBaselineDeterministicAcrossJobs pins the property committed baselines
// rely on: the deterministic metric core — headline gauges, cycle counters,
// and the exec.run.cycles histogram (observed in the engine's submission-
// ordered merge loop, never on workers) — is byte-identical whether the
// cells ran serially or on an 8-wide pool.
func TestBaselineDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("perf harness")
	}
	serial := harvestFigure6(t, 1)
	parallel := harvestFigure6(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("deterministic baseline differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", serial, parallel)
	}
}

// TestBaselineHarvestsEngineHistograms checks the engine's modeled-cycle
// histogram lands in the baseline and its wall-clock histograms do not.
func TestBaselineHarvestsEngineHistograms(t *testing.T) {
	if testing.Short() {
		t.Skip("perf harness")
	}
	obs := &telemetry.Observer{Registry: telemetry.NewRegistry()}
	opt := Options{Scale: 16, Runs: 1, Jobs: 2, Obs: obs, Out: io.Discard}
	if _, err := Figure6(opt); err != nil {
		t.Fatal(err)
	}
	snap := obs.Registry.Snapshot()
	b := perf.FromSnapshot("figure6", snap, perf.Collect(), nil)
	for _, key := range []string{"exec.run.cycles.count", "exec.run.cycles.sum", "exec.run.cycles.p50", "exec.run.cycles.p99"} {
		m, ok := b.Metrics[key]
		if !ok {
			t.Errorf("baseline lacks %s", key)
			continue
		}
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", key, m.Value)
		}
	}
	for _, key := range b.MetricKeys() {
		if strings.Contains(key, ".seconds") {
			t.Errorf("baseline harvested wall-clock metric %s", key)
		}
	}
}
