package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"r2c/internal/exec"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/workload"
)

// stub runs a CLI built on the harness over a stub experiment table:
// "ok" publishes the -value flag as a deterministic bench.* gauge (what a
// baseline records), "partial" fails one cell of two, "hard" fails
// outright, and "interrupt" signals the process and waits for the run
// context to be cancelled.
func stub(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	h := New("stub", "<experiment>", &out, &errb, Ops|Artifacts|Engine|PerfGate)
	value := h.Flags.Int("value", 5, "value of the bench.stub gauge")
	format := h.Flags.String("profile-format", "table", "stand-in for a CLI's own validated flag")
	h.Params = []string{"value"}
	h.Experiments = []Experiment{
		{Name: "ok", Run: func() error { h.Obs.Gauge("bench.stub").Set(float64(*value)); return nil }},
		{Name: "partial", Run: func() error {
			return &exec.BatchError{Total: 2, Failures: []*exec.CellError{{Index: 1, Err: errors.New("boom")}}}
		}},
		{Name: "hard", Run: func() error { return errors.New("hard failure") }},
		{Name: "interrupt", Run: func() error {
			p, err := os.FindProcess(os.Getpid())
			if err != nil {
				return err
			}
			if err := p.Signal(os.Interrupt); err != nil {
				return err
			}
			select {
			case <-h.Ctx.Done():
				return h.Ctx.Err()
			case <-time.After(10 * time.Second):
				return errors.New("SIGINT did not cancel the run context")
			}
		}},
	}
	code = h.Main(args, func() error {
		if *format != "table" {
			return Usage(fmt.Errorf("unknown -profile-format %q", *format))
		}
		if err := h.Open(1, false); err != nil {
			return err
		}
		h.SampleCells()
		if err := h.Serve(telemetry.OpsSources{}); err != nil {
			return err
		}
		return h.RunExperiments()
	})
	return code, out.String(), errb.String()
}

func tempFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	badRules := tempFile(t, dir, "bad.rules", "not a rule\n")
	firing := tempFile(t, dir, "firing.rules", "stub-high: value(bench.stub) > 0\n")
	quiet := tempFile(t, dir, "quiet.rules", "stub-huge: value(bench.stub) > 100\n")
	base := filepath.Join(dir, "BENCH_ok.json")
	trace := filepath.Join(dir, "t.json")

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"ok"}, 0},
		{"help", []string{"-h"}, 0},
		{"no experiment", nil, 2},
		{"two experiments", []string{"ok", "ok"}, 2},
		{"unknown flag", []string{"-bogus", "ok"}, 2},
		{"unknown experiment", []string{"nope"}, 2},
		{"bad -faults", []string{"-faults", "zz", "ok"}, 2},
		{"removed slow fault kind", []string{"-faults", "3:slow", "ok"}, 2},
		{"bad -alert-rules", []string{"-alert-rules", badRules, "ok"}, 2},
		{"unknown -profile-format", []string{"-profile-format", "x", "ok"}, 2},
		{"bad -trace-format without -trace", []string{"-trace-format", "bogus", "ok"}, 2},
		{"bad -trace-format with -trace", []string{"-trace-format", "bogus", "-trace", trace, "ok"}, 2},
		{"quiet rule", []string{"-alert-rules", quiet, "ok"}, 0},
		{"firing rule", []string{"-alert-rules", firing, "ok"}, 1},
		// bench.stub is lower-is-better: drift either way fails -compare.
		{"record baseline", []string{"-baseline", base, "-value", "2", "ok"}, 0},
		{"compare adopts label and params", []string{"-compare", base}, 0},
		{"baseline regression", []string{"-compare", base, "-value", "3"}, 1},
		{"baseline improvement", []string{"-compare", base, "-value", "1"}, 1},
		{"missing baseline", []string{"-compare", filepath.Join(dir, "none.json")}, 1},
		{"unopenable journal", []string{"-journal", filepath.Join(dir, "missing", "j.jsonl"), "ok"}, 1},
		{"partial batch", []string{"partial"}, 1},
		{"hard error", []string{"hard"}, 1},
		{"all stops at the hard error", []string{"all"}, 1},
		{"ops endpoint", []string{"-listen", "127.0.0.1:0", "ok"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if code, out, errs := stub(t, c.args...); code != c.want {
				t.Errorf("stub %v exited %d, want %d\nstdout:\n%s\nstderr:\n%s", c.args, code, c.want, out, errs)
			}
		})
	}
	// A malformed -trace-format fails before the sinks open.
	if _, err := os.Stat(trace); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("bad -trace-format left %s behind (stat: %v)", trace, err)
	}
}

func TestUnknownExperimentListsKnown(t *testing.T) {
	_, _, errs := stub(t, "nope")
	if !strings.Contains(errs, "known experiments: ok partial hard interrupt all") {
		t.Errorf("stderr does not list the known experiments:\n%s", errs)
	}
}

// Status lines go to stderr, so stdout carries only the run's own output
// and the judge/alert tables.
func TestStatusLinesOnStderr(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-baseline", filepath.Join(dir, "b.json"),
		"-incidents-out", filepath.Join(dir, "i.json"),
		"-timeseries-out", filepath.Join(dir, "ts.json"),
		"-listen", "127.0.0.1:0",
		"ok",
	}
	code, out, errs := stub(t, args...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errs)
	}
	for _, want := range []string{"[baseline \"ok\" written to", "[0 incident records written to", "[time-series rings written to", "[ops endpoint listening on"} {
		if !strings.Contains(errs, want) {
			t.Errorf("stderr lacks %q:\n%s", want, errs)
		}
		if strings.Contains(out, want) {
			t.Errorf("stdout carries status line %q:\n%s", want, out)
		}
	}
}

// Every exit after a sink is open flushes it: a hard error, a partial batch
// and SIGINT all leave decodable -metrics-out and chrome -trace files, and a
// -trace that fails to open still leaves a decodable -metrics-out.
func TestSinksFlushedOnFailure(t *testing.T) {
	for _, exp := range []string{"hard", "partial", "interrupt", "trace-open"} {
		t.Run(exp, func(t *testing.T) {
			dir := t.TempDir()
			m, tr := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
			files, arg := []string{m, tr}, exp
			if exp == "trace-open" {
				tr = filepath.Join(dir, "missing", "t.json")
				files, arg = []string{m}, "ok"
			}
			code, _, errs := stub(t, "-metrics-out", m, "-trace", tr, "-trace-format", "chrome", arg)
			if code != 1 {
				t.Fatalf("exit %d, want 1\n%s", code, errs)
			}
			for _, p := range files {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				var v any
				if err := json.Unmarshal(b, &v); err != nil {
					t.Errorf("%s does not decode (%d bytes): %v", filepath.Base(p), len(b), err)
				}
			}
		})
	}
}

// The happy path writes both sinks: a metrics snapshot and a chrome trace
// document, neither empty.
func TestSinksWritten(t *testing.T) {
	dir := t.TempDir()
	m, tr := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.chrome.json")
	if code, _, errs := stub(t, "-metrics-out", m, "-trace", tr, "-trace-format", "chrome", "ok"); code != 0 {
		t.Fatalf("exit %d\n%s", code, errs)
	}
	for _, p := range []string{m, tr} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Errorf("%s is empty after the run", filepath.Base(p))
		}
	}
}

// Closing the sinks reports every failure, not just the first: with both
// files closed under the harness, the metrics-snapshot write and the chrome
// flush both fail, the run exits 1 and stderr names each.
func TestSinkCloseReportsEveryFailure(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	h := New("stub", "<arg>", &out, &errb, 0)
	args := []string{"-metrics-out", filepath.Join(dir, "m.json"), "-trace", filepath.Join(dir, "t.json"), "-trace-format", "chrome", "x"}
	code := h.Main(args, func() error {
		if err := h.Open(1, false); err != nil {
			return err
		}
		h.Obs.Counter("x").Inc()
		h.Obs.StartSpan("root", 1).End()
		if err := h.metrics.Close(); err != nil {
			return err
		}
		return h.trace.Close()
	})
	if code != 1 {
		t.Fatalf("exit %d with both sink files closed, want 1\n%s", code, errb.String())
	}
	for _, want := range []string{"metrics snapshot", "chrome trace"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr does not mention %q:\n%s", want, errb.String())
		}
	}
}

// The harness's single per-experiment record is a *.seconds histogram.
func TestExperimentSecondsRecorded(t *testing.T) {
	dir := t.TempDir()
	m := filepath.Join(dir, "m.json")
	if code, _, errs := stub(t, "-metrics-out", m, "ok"); code != 0 {
		t.Fatalf("exit %d\n%s", code, errs)
	}
	b, err := os.ReadFile(m)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if h, ok := snap.Histograms["harness.experiment.seconds{name=ok}"]; !ok || h.Count != 1 {
		t.Errorf("harness.experiment.seconds{name=ok} missing or miscounted: %+v", h)
	}
}

// TestModuleTextFixedPoint holds that every built-in module's text (the 12
// SPEC workloads, nginx and apache whole and per request, and the attack
// victim) parses back to a module that prints the same text, so any dumped
// workload can be edited and compiled again as a .tir file.
func TestModuleTextFixedPoint(t *testing.T) {
	mods := []*tir.Module{workload.NginxRequest(), workload.ApacheRequest()}
	names := []string{"victim", "nginx", "apache"}
	for _, b := range workload.SPEC() {
		names = append(names, b.Name)
	}
	for _, name := range names {
		m, err := Module(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	for _, m := range mods {
		text := m.String()
		back, err := tir.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if got := tir.Marshal(back); got != text {
			t.Errorf("%s: the parsed text prints differently", m.Name)
		}
	}
}
