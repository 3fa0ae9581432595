package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"r2c/internal/telemetry"
)

// The r2cc flag set: every flag's name, type and default. Changing any of
// them changes the CLI's contract.
const wantFlags = `-config string (default "r2c")
-dump string
-layout
-metrics-out string
-profile
-run
-scale int (default 8)
-seed uint (default 1)
-stack
-top int (default 15)
-trace string`

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

// -run -profile publishes the per-function profile into the registry, so
// -metrics-out carries the vm.func.* counters and stdout the hot-function
// table rendered from them.
func TestRunProfileMetricsOut(t *testing.T) {
	m := filepath.Join(t.TempDir(), "m.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "-profile", "-metrics-out", m, "victim"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	b, err := os.ReadFile(m)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	key := telemetry.Key("vm.func.self_cycles", "fn", "helper")
	if snap.Counters[key] == 0 {
		t.Errorf("-metrics-out lacks %s; counters: %v", key, snap.Counters)
	}
	if !strings.Contains(stdout.String(), "hot functions") || !strings.Contains(stdout.String(), " helper ") {
		t.Errorf("stdout lacks the hot-function table:\n%s", stdout.String())
	}
}
