package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
-metrics-out string
-mvee int
-rate float
-rebuild-latency float
-requests int (default 2000)
-require-recover
-sample-every float
-seed uint (default 1)
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

// incidentsGolden is the sha256 of -incidents-out for `-requests 600 -mvee 2
// -attack overwrite -flight 16 nginx`: the MVEE divergence incident with its
// flight record and content-derived ID.
const incidentsGolden = "8bca30cdba23207bc3b3c1965ae801af47eccf14acfed89d98d2b1dd6954fe5a"

func TestIncidentsGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "inc.json")
	args := []string{"-requests", "600", "-mvee", "2", "-attack", "overwrite", "-flight", "16",
		"-incidents-out", out, "nginx"}
	if code := run(args, io.Discard, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != incidentsGolden {
		t.Errorf("incidents sha256 = %s, want %s", got, incidentsGolden)
	}
}

// rerollGolden pins a reroll-healed fleet under `-heal reroll -mvee 2
// -adaptive -attack overwrite -requests 800 nginx`: per -config, the sha256
// of -incidents-out and of the -json report's "sim" object. Every heal
// replaces a slot's image with a BTRA-rerolled copy of it, and the result
// must not depend on the -jobs width.
var rerollGolden = []struct{ config, incidents, sim string }{
	{"push", "0b8c298167725cb7bb846bfb5bf1c1978d2dcef58f739beae991ae5451232ab4", "9289f80a42abb072d88cdd149daa2fea5f430ad3e8b5a3bac7f21c6b54afc838"},
	{"r2c", "6292748fa5f3dbedb9040922066e30dc5713522bca743bd218ddf264d398ecb8", "84bf861f5215c9d59c27150d919dcd2d112017acb716943535f751880451f850"},
}

func TestRerollHealGolden(t *testing.T) {
	for _, jobs := range []string{"1", "4"} {
		for _, g := range rerollGolden {
			t.Run(g.config+"/jobs"+jobs, func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "inc.json")
				var stdout bytes.Buffer
				args := []string{"-heal", "reroll", "-mvee", "2", "-adaptive", "-attack", "overwrite",
					"-requests", "800", "-config", g.config, "-jobs", jobs, "-json", "-incidents-out", out, "nginx"}
				if code := run(args, &stdout, io.Discard); code != 0 {
					t.Fatalf("exit %d", code)
				}
				b, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != g.incidents {
					t.Errorf("incidents sha256 = %s, want %s", got, g.incidents)
				}
				var rep struct {
					Sim json.RawMessage `json:"sim"`
				}
				if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
					t.Fatal(err)
				}
				sum = sha256.Sum256(rep.Sim)
				if got := hex.EncodeToString(sum[:]); got != g.sim {
					t.Errorf("sim sha256 = %s, want %s\n%s", got, g.sim, rep.Sim)
				}
			})
		}
	}
}
