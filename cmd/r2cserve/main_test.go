package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The r2cserve flag set: every flag's name, type and default. Changing any of
// them changes the CLI's contract.
const wantFlags = `-adaptive
-alert-rules string
-attack string
-attack-every int (default 50)
-attack-start int (default 100)
-attack-target string (default "page64")
-attack-value uint (default 50159747054)
-config string (default "r2c")
-degrade-after int
-degrade-growth float
-degrade-slot int
-flight int
-fuel uint
-heal string (default "rebuild")
-incidents-out string
-jobs int
-json
-listen string
-max-slices int
-metrics-out string
-mvee int
-rate float
-rebuild-latency float
-requests int (default 2000)
-require-recover
-sample-every float
-seed uint (default 1)
-slice int
-timeseries-out string
-trace string
-trace-format string (default "jsonl")
-variants int (default 4)`

// flagSignatures reduces -h output to "-name type (default X)" lines.
func flagSignatures(help string) string {
	var sigs []string
	for _, line := range strings.Split(help, "\n") {
		switch {
		case strings.HasPrefix(line, "  -"):
			sigs = append(sigs, strings.TrimSpace(line))
		case strings.HasPrefix(line, "    \t") && len(sigs) > 0:
			if i := strings.LastIndex(line, " (default "); i >= 0 && strings.HasSuffix(line, ")") {
				sigs[len(sigs)-1] += line[i:]
			}
		}
	}
	return strings.Join(sigs, "\n")
}

func TestFlagSet(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, io.Discard, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	if got := flagSignatures(stderr.String()); got != wantFlags {
		t.Errorf("flag set changed:\n--- got ---\n%s\n--- want ---\n%s", got, wantFlags)
	}
}

// A run that fails after the sinks are open — here fleet.New rejecting a
// one-variant fleet — still flushes them: both files decode as JSON.
func TestFailedRunFlushesSinks(t *testing.T) {
	dir := t.TempDir()
	m, tr := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	if code := run([]string{"-variants", "1", "-metrics-out", m, "-trace", tr, "-trace-format", "chrome", "nginx"}, io.Discard, io.Discard); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, p := range []string{m, tr} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Errorf("%s does not decode (%d bytes): %v", filepath.Base(p), len(b), err)
		}
	}
}

// With -json, stdout is exactly one JSON document even when the run also
// writes artifacts and evaluates alert rules.
func TestJSONStdoutIsOneDocument(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	args := []string{"-json", "-requests", "200",
		"-incidents-out", filepath.Join(dir, "x.json"),
		"-timeseries-out", filepath.Join(dir, "y.json"),
		"-alert-rules", filepath.Join("..", "..", "alerts.example.rules"),
		"nginx"}
	if code := run(args, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var v any
	if err := json.Unmarshal(stdout.Bytes(), &v); err != nil {
		t.Errorf("stdout is not one JSON document: %v\n%s", err, stdout.String())
	}
}
