package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
	"strings"
	"sync"

	"r2c/internal/perf"
)

// runRecord is one workload run in a results file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Jobs      int                `json:"jobs"`
	Trace     bool               `json:"trace"`
	Rounds    int                `json:"rounds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digests   map[string]string  `json:"digests,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// summary is one metric's spread over a results file's runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// resultsFile is a set of runs: every -out run appends to it, and compare
// judges two of them. Summary is recomputed on every append, workload by
// metric, over the runs that report the metric.
type resultsFile struct {
	Provenance perf.Provenance               `json:"provenance"`
	Runs       []runRecord                   `json:"runs"`
	Summary    map[string]map[string]summary `json:"summary"`
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResults adds rec to the results file at path, creating it with this
// machine's provenance when it does not exist yet.
func appendResults(path string, rec runRecord) error {
	rf, err := readResults(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		rf = &resultsFile{Provenance: perf.Collect()}
	case err != nil:
		return err
	default:
		if diff := rf.Provenance.EnvDiff(perf.Collect()); len(diff) > 0 {
			fmt.Fprintf(os.Stderr, "r2cperf: %s was recorded elsewhere: %s\n", path, strings.Join(diff, "; "))
		}
	}
	rf.Runs = append(rf.Runs, rec)
	rf.Summary = map[string]map[string]summary{}
	for w, byMetric := range rf.values() {
		rf.Summary[w] = map[string]summary{}
		for name, xs := range byMetric {
			q1, med, q3 := quartiles(xs)
			rf.Summary[w][name] = summary{Median: med, Q1: q1, Q3: q3, N: len(xs)}
		}
	}
	body, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

// values groups every run's metric values by workload and metric.
func (rf *resultsFile) values() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rf.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

// failures returns a workload's failed and attempted totals.
func (rf *resultsFile) failures(workload string) (failed, attempted int) {
	for _, r := range rf.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

//go:embed expected.json
var expectedJSON []byte

var (
	expectedOnce sync.Once
	expected     map[string]string
)

// expectedDigests returns the seed-1 output digests recorded at full size,
// keyed by workload (and machine, on figure6).
func expectedDigests() map[string]string {
	expectedOnce.Do(func() {
		if err := json.Unmarshal(expectedJSON, &expected); err != nil {
			panic("expected.json: " + err.Error()) // embedded at build time
		}
	})
	return expected
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of compare, after choosing-metrics §8: a change is worse only
// beyond the metric's bound, and a spread wider than the bound resolves
// nothing unless every new run beats every old one.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse-beyond-bound"
	verdictUnresolved = "unresolved"
)

// judge compares one metric's old and new run values. worse is the new
// median's relative worsening (negative when better).
func judge(old, cur []float64, better string, bound float64) (verdict string, worse float64) {
	oq1, omed, oq3 := quartiles(old)
	nq1, nmed, nq3 := quartiles(cur)
	worse = (nmed - omed) / omed
	if better == "higher" {
		worse = -worse
	}
	oldSpread := (oq3 - oq1) / math.Abs(omed)
	spread := math.Max(oldSpread, (nq3-nq1)/math.Abs(nmed))
	beats := func(a, b float64) bool {
		if better == "higher" {
			return a > b
		}
		return a < b
	}
	allBetter := true
	for _, n := range cur {
		for _, o := range old {
			allBetter = allBetter && beats(n, o)
		}
	}
	switch {
	case allBetter:
		return verdictBetter, worse
	case spread > bound:
		return verdictUnresolved, worse
	case worse > bound:
		return verdictWorse, worse
	case -worse > oldSpread:
		return verdictBetter, worse
	}
	return verdictWithin, worse
}

// compareMain implements `r2cperf compare OLD NEW`: one row per workload and
// end-to-end metric, plus the failure fraction. It returns 1 on a
// worse-beyond-bound row or a higher failure fraction.
func compareMain(args []string, w io.Writer) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark definition holding each end-to-end metric's bound")
	if err := fl.Parse(args); err != nil || fl.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: r2cperf compare [-spec BENCHMARK.json] OLD.json NEW.json")
		return 2
	}
	s, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "r2cperf:", err)
		return 2
	}
	old, err := readResults(fl.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "r2cperf:", err)
		return 2
	}
	cur, err := readResults(fl.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "r2cperf:", err)
		return 2
	}
	return compare(w, s, old, cur)
}

func compare(w io.Writer, s *spec, old, cur *resultsFile) int {
	if diff := old.Provenance.EnvDiff(cur.Provenance); len(diff) > 0 {
		fmt.Fprintf(w, "note: recorded on different machines (%s)\n", strings.Join(diff, "; "))
	}
	ov, cv := old.values(), cur.values()
	var names []string
	for name := range ov {
		if cv[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-12s %-34s %-34s %8s  %s\n", "workload", "metric", "old median [q1, q3] n", "new median [q1, q3] n", "worse", "verdict")
	cell := func(xs []float64) string {
		q1, med, q3 := quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g, %.5g] %d", med, q1, q3, len(xs))
	}
	status := 0
	for _, name := range names {
		for _, m := range s.EndToEnd {
			o, c := ov[name][m.Name], cv[name][m.Name]
			if len(o) == 0 || len(c) == 0 || m.Bound == nil {
				continue
			}
			verdict, worse := judge(o, c, m.Better, *m.Bound)
			if verdict == verdictWorse {
				status = 1
			}
			fmt.Fprintf(w, "%-16s %-12s %-34s %-34s %+7.1f%%  %s\n", name, m.Name, cell(o), cell(c), 100*worse, verdict)
		}
		of, oa := old.failures(name)
		cf, ca := cur.failures(name)
		verdict := "equal"
		if ratio(float64(cf), float64(ca)) > ratio(float64(of), float64(oa)) {
			verdict = "higher"
			status = 1
		} else if ratio(float64(cf), float64(ca)) < ratio(float64(of), float64(oa)) {
			verdict = "lower"
		}
		fmt.Fprintf(w, "%-16s %-12s %-34s %-34s %8s  %s\n", name, "failed_frac", fmt.Sprintf("%d/%d", of, oa), fmt.Sprintf("%d/%d", cf, ca), "", verdict)
	}
	return status
}
