// Package perf is the committed modeled-numbers layer: a versioned baseline
// schema (BENCH_<label>.json), harvesting from a telemetry snapshot, and a
// Judge that diffs a fresh run against a committed baseline — the mechanism
// that turns "this change moved figure6's overhead geomean" from a claim
// into a CI-checkable fact.
//
// Every baseline metric is deterministic: modeled cycle counts, overhead
// geomeans, detection rates and call counts are pure functions of the tree
// and the run parameters, byte-stable across -jobs widths and machines, so
// any drift beyond a last-ulp epsilon is a real behavior change. Wall-clock
// numbers are not recorded here; the benchmark module (benchmark/, r2cperf)
// is the one judge of how fast the simulator runs.
package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"r2c/internal/telemetry"
)

// SchemaVersion is the current baseline schema. Load refuses files with a
// different version rather than guessing at field semantics; version-1
// files carry wall-clock "phases" and per-metric "class" fields this
// version has no use for.
const SchemaVersion = 2

// Directions for Metric.Better.
const (
	// BetterLower means a smaller value is an improvement (cycles, overhead
	// percent).
	BetterLower = "lower"
	// BetterHigher means a larger value is an improvement (detection rate).
	BetterHigher = "higher"
	// BetterExact means the value is a characteristic, not a score: any
	// drift beyond the allowance is a mismatch (call counts, cell counts).
	BetterExact = "exact"
)

// Metric is one recorded scalar.
type Metric struct {
	Value float64 `json:"value"`
	// Better is the improvement direction: BetterLower, BetterHigher or
	// BetterExact.
	Better string `json:"better"`
	Unit   string `json:"unit,omitempty"`
}

// Baseline is one committed performance snapshot: the BENCH_<label>.json
// schema.
type Baseline struct {
	Schema     int        `json:"schema"`
	Label      string     `json:"label"`
	Provenance Provenance `json:"provenance"`
	// Params records the run parameters the numbers depend on (scale,
	// runs, trials); -compare adopts them so a comparison re-runs the
	// baseline's exact configuration.
	Params map[string]string `json:"params,omitempty"`
	// Metrics maps canonical telemetry keys to recorded values.
	Metrics map[string]Metric `json:"metrics"`
}

// cycleHist is the deterministic per-run cycle-count histogram the engine
// records in its ordered merge loop.
const cycleHist = "exec.run.cycles"

// detCounters are the registry counters harvested as deterministic metrics.
var detCounters = []string{"vm.instructions", "vm.calls"}

// FromSnapshot harvests a baseline from a telemetry snapshot:
//
//   - every "bench.*" gauge — the experiment drivers' deterministic
//     headline numbers (geomean overheads, detection rates, call medians);
//   - the exec.run.cycles histogram as deterministic count/sum/quantiles;
//   - the vm.instructions and vm.calls totals.
//
// Wall-clock histograms (*.seconds) are not harvested.
func FromSnapshot(label string, snap *telemetry.Snapshot, prov Provenance, params map[string]string) *Baseline {
	b := &Baseline{
		Schema:     SchemaVersion,
		Label:      label,
		Provenance: prov,
		Params:     params,
		Metrics:    map[string]Metric{},
	}
	if snap == nil {
		return b
	}
	for k, v := range snap.Gauges {
		base, _ := telemetry.ParseKey(k)
		if !strings.HasPrefix(base, "bench.") {
			continue
		}
		better := BetterLower
		unit := ""
		switch {
		case strings.HasSuffix(base, "_pct"):
			unit = "pct"
		case strings.HasSuffix(base, "_rate"):
			better = BetterHigher
			unit = "ratio"
		case strings.HasSuffix(base, ".calls"):
			better = BetterExact
			unit = "count"
		}
		b.Metrics[k] = Metric{Value: v, Better: better, Unit: unit}
	}
	for _, name := range detCounters {
		if v, ok := snap.Counters[name]; ok {
			b.Metrics[name] = Metric{Value: float64(v), Better: BetterLower, Unit: "count"}
		}
	}
	for k, h := range snap.Histograms {
		base, _ := telemetry.ParseKey(k)
		if base == cycleHist {
			b.Metrics[k+".count"] = Metric{Value: float64(h.Count), Better: BetterExact, Unit: "count"}
			b.Metrics[k+".sum"] = Metric{Value: h.Sum, Better: BetterLower, Unit: "cycles"}
			b.Metrics[k+".p50"] = Metric{Value: h.Quantile(0.50), Better: BetterLower, Unit: "cycles"}
			b.Metrics[k+".p99"] = Metric{Value: h.Quantile(0.99), Better: BetterLower, Unit: "cycles"}
		}
	}
	return b
}

// Save writes the baseline as indented JSON. encoding/json sorts map keys,
// so the file is deterministic for given contents — a re-emitted identical
// baseline produces no git diff.
func (b *Baseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: marshal baseline: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("perf: write baseline: %w", err)
	}
	return nil
}

// Load reads and validates a baseline file.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perf: read baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("perf: parse baseline %s: %w", path, err)
	}
	if b.Schema != SchemaVersion {
		return nil, fmt.Errorf("perf: baseline %s has schema %d, this binary speaks %d (refresh the baseline or update the tool)", path, b.Schema, SchemaVersion)
	}
	if b.Label == "" {
		return nil, fmt.Errorf("perf: baseline %s has no label", path)
	}
	return &b, nil
}

// DeterministicJSON serializes the reproducible core of the baseline —
// schema, label, params, and the non-NaN metrics — with sorted keys. Two
// runs of the same tree at any -jobs width must produce byte-identical
// DeterministicJSON; the determinism gate pins exactly that. Provenance
// (host, Go version, a possibly -dirty git state) is excluded, as it
// legitimately differs between runs.
func (b *Baseline) DeterministicJSON() ([]byte, error) {
	det := struct {
		Schema  int               `json:"schema"`
		Label   string            `json:"label"`
		Params  map[string]string `json:"params,omitempty"`
		Metrics map[string]Metric `json:"metrics"`
	}{Schema: b.Schema, Label: b.Label, Params: b.Params, Metrics: map[string]Metric{}}
	for k, m := range b.Metrics {
		if !math.IsNaN(m.Value) {
			det.Metrics[k] = m
		}
	}
	return json.MarshalIndent(det, "", "  ")
}

// MetricKeys returns the baseline's metric keys in sorted order.
func (b *Baseline) MetricKeys() []string {
	keys := make([]string, 0, len(b.Metrics))
	for k := range b.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
