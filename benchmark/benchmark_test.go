package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// specPath is BENCHMARK.json, at the root of the repository.
const specPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// keysOf returns the sorted keys of a JSON object.
func keysOf(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("not an object: %s", raw)
	}
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

// TestSpec checks BENCHMARK.json against its format's limits and against
// the program: the same workloads, and the same metric names, units and
// directions the program reports.
func TestSpec(t *testing.T) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if got := keysOf(t, raw); got != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Fatalf("top-level keys %s", got)
	}
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}

	if n := len(s.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		t.Errorf("paths has %d entries", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var lists struct {
		Workloads, EndToEnd, PerLayer []json.RawMessage
	}
	json.Unmarshal(top["workloads"], &lists.Workloads)
	json.Unmarshal(top["end_to_end"], &lists.EndToEnd)
	json.Unmarshal(top["per_layer"], &lists.PerLayer)

	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for i, w := range s.Workloads {
		if got := keysOf(t, lists.Workloads[i]); got != "name,why" {
			t.Errorf("workload %d keys %s", i, got)
		}
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %s; the program's is not", i, w.Name)
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}

	checkMetrics := func(kind string, got []specMetric, rawList []json.RawMessage, want []metricDef, keys string, max int) {
		if len(got) < 1 || len(got) > max {
			t.Errorf("%d %s metrics", len(got), kind)
		}
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if k := keysOf(t, rawList[i]); k != keys {
				t.Errorf("%s metric %s keys %s", kind, m.Name, k)
			}
			name(m.Name)
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s metric %s: unit %q better %q", kind, m.Name, m.Unit, m.Better)
			}
			if i < len(want) && (want[i] != metricDef{m.Name, m.Unit, m.Better}) {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the program", kind, i, m, want[i])
			}
		}
	}
	checkMetrics("end_to_end", s.EndToEnd, lists.EndToEnd, endToEnd, "better,bound,name,unit", 16)
	checkMetrics("per_layer", s.PerLayer, lists.PerLayer, perLayer, "better,name,unit", 128)

	hasSetup := false
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound must be in (0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, m := range s.EndToEnd {
		if m.Name != "setup_s" && m.Bound != nil && *m.Bound > *bound(s, "setup_s") {
			t.Errorf("setup_s must carry the largest bound; %s's is larger", m.Name)
		}
	}

	inSpec := func(list []specMetric, n string) bool {
		for _, m := range list {
			if m.Name == n {
				return true
			}
		}
		return false
	}
	for _, mv := range moves {
		if !inSpec(s.PerLayer, mv.layer) || !inSpec(s.EndToEnd, mv.metric) {
			t.Errorf("move %s → %s names a metric BENCHMARK.json does not define", mv.layer, mv.metric)
		}
		for _, w := range mv.workloads {
			if _, ok := workloadByName(w); !ok {
				t.Errorf("move %s names unknown workload %s", mv.layer, w)
			}
		}
	}
}

func bound(s *spec, name string) *float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return new(float64)
}

func TestFigure6Reference(t *testing.T) {
	ref, err := loadFigure6Reference("../" + figure6RefFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 48 {
		t.Errorf("%d overhead rows, want 12 benchmarks × 4 machines", len(ref))
	}
	if v, ok := ref["nab/EPYC Rome"]; !ok || v <= 0 {
		t.Errorf("nab/EPYC Rome = %v, %v", v, ok)
	}
}

func TestStats(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := median(c.xs); !near(got, c.m) {
			t.Errorf("median(%v) = %v", c.xs, got)
		}
	}
	if q1, m, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(m) || !math.IsNaN(q3) {
		t.Error("quartiles of nothing must be NaN")
	}
	xs := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 50: 30, 90: 46, 100: 50} {
		if got := percentile(xs, p); !near(got, want) {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	for n, want := range map[int]float64{0: 0, 19: 0, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		cur    []float64
		better string
		want   string
	}{
		{[]float64{100, 100.5, 99.5, 101, 100}, "higher", verdictWithin},
		{[]float64{70, 71, 69, 70, 72}, "higher", verdictWorse},
		{[]float64{70, 71, 69, 70, 72}, "lower", verdictBetter},
		{[]float64{60, 140, 100, 60, 140}, "higher", verdictUnresolved},
		{[]float64{103, 104, 103.5, 105, 104}, "higher", verdictBetter},
	} {
		if got, _ := judge(old, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("judge(%v, %s) = %s, want %s", c.cur, c.better, got, c.want)
		}
	}
}

func TestCompareFailsOnRegression(t *testing.T) {
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rate float64, failed int) runRecord {
		return runRecord{Workload: "serve", Attempted: 100, Failed: failed,
			Metrics: map[string]float64{"setup_s": 1, "work_per_s": rate, "peak_rss_mb": 20}}
	}
	set := func(rate float64, failed int) *resultsFile {
		return &resultsFile{Runs: []runRecord{run(rate, failed), run(rate*1.01, failed), run(rate*0.99, failed)}}
	}
	var out bytes.Buffer
	if got := compare(&out, s, set(1000, 0), set(1005, 0)); got != 0 {
		t.Errorf("equal sets: status %d\n%s", got, &out)
	}
	if got := compare(&out, s, set(1000, 0), set(500, 0)); got != 1 {
		t.Errorf("halved throughput: status %d\n%s", got, &out)
	}
	if got := compare(&out, s, set(1000, 0), set(1000, 1)); got != 1 {
		t.Errorf("more failures: status %d\n%s", got, &out)
	}
}

// TestWorkloadsDeterministic runs every workload at tiny size with one and
// two workers: the output digests must agree, no check may fail, and the
// traced replay must pass its own checks (figure6's replayed cycles equal
// RunCells', rediversify's replayed images equal BuildImages').
func TestWorkloadsDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			digests := map[int]string{}
			for _, jobs := range []int{1, 2} {
				p := params{seed: 1, jobs: jobs, size: tinySize}
				out, err := w.run(ctx, p, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.units == 0 {
					t.Fatalf("jobs %d: %d of %d units failed", jobs, out.failed, out.units)
				}
				digests[jobs] = out.digest
			}
			if digests[1] != digests[2] {
				t.Errorf("digest at -jobs 1 %s, at -jobs 2 %s", digests[1], digests[2])
			}
			rep, err := measure(ctx, w, options{p: params{seed: 2, jobs: 2, size: tinySize}, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := rep.record()
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct {
				t.Errorf("traced run: %d of %d failed", rec.Failed, rec.Attempted)
			}
			for _, m := range perLayer {
				if _, ok := rec.Metrics[m.name]; !ok {
					t.Errorf("traced run lacks %s", m.name)
				}
			}
			var sum float64
			for _, l := range layers {
				sum += rep.layers[l].d.Seconds()
			}
			if got := sum + rec.Metrics["unattributed_s"]*float64(rep.rounds); math.Abs(got-rep.replayTotal.Seconds()) > 1e-6 {
				t.Errorf("layers plus unattributed %.6fs, replay total %.6fs", got, rep.replayTotal.Seconds())
			}
			if (rec.Metrics["mvee.run.calls"] > 0) != (w.name == "serve-mvee-heal") {
				t.Errorf("mvee.run.calls = %v", rec.Metrics["mvee.run.calls"])
			}
			if w.name == "rediversify" && rec.Metrics["vm.exec.calls"] != 0 {
				t.Errorf("rediversify executed %v runs", rec.Metrics["vm.exec.calls"])
			}
		})
	}
}
