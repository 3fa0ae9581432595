package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The r2cattack flag set: every flag's name, type and default. Changing any of
// them changes the CLI's contract.
const wantFlags = `-alert-rules string
-baseline string
-cell-fuel uint
-compare string
-faults string
-flight int
-forensics
-incidents-out string
-jobs int
-journal string
-listen string
-metrics-out string
-overheads
-retries int
-timeseries-out string
-trace string
-trace-format string (default "jsonl")
-trials int (default 10)`

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

// incidentsGolden maps each experiment to the sha256 of its -incidents-out
// under `-trials 2 -flight 16`. sidechannel-hardened seals six trap incidents,
// each carrying its process's traps_total/traps_dropped and a content-derived
// ID; bruteforce and table3 seal the probe-time and resume-time detections of
// their restart and Monte-Carlo victims. Any change to how a detonation is
// counted, recorded or sealed, or to which victims report, moves them.
var incidentsGolden = []struct{ experiment, sha256 string }{
	{"sidechannel-hardened", "88167f37a348ccdb36002c4b15488865058ccd330727ddbfeb8b712d87fc82a4"},
	{"bruteforce", "e2db50a9ff8d6f211e9f55bacddabcde071d9a138a04eda8536566803d8a340a"},
	{"table3", "e5ba18eeb493fb3d22860fba4dc669b5667703915e66759fe88729106c2e48c5"},
}

func TestIncidentsGolden(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			for _, g := range incidentsGolden {
				out := filepath.Join(t.TempDir(), g.experiment+".json")
				args := []string{"-jobs", fmt.Sprint(jobs), "-trials", "2", "-flight", "16",
					"-incidents-out", out, g.experiment}
				if code := run(args, io.Discard, io.Discard); code != 0 {
					t.Fatalf("%s: exit %d", g.experiment, code)
				}
				b, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != g.sha256 {
					t.Errorf("%s: incidents sha256 = %s, want %s", g.experiment, got, g.sha256)
				}
			}
		})
	}
}

// forensicsGolden is the sha256 of `-trials 2 -forensics table3` stdout with
// the run-summary footer removed (it names the -jobs width): the Table 3
// matrix, the per-trial trap provenance table and the incident correlation
// summary.
const forensicsGolden = "7c568c504232f05f797bbb69e0a913582cfcd89388b1b66d7ff4d9082c82d8d0"

func TestForensicsGolden(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			var stdout bytes.Buffer
			args := []string{"-jobs", fmt.Sprint(jobs), "-trials", "2", "-forensics", "table3"}
			if code := run(args, &stdout, io.Discard); code != 0 {
				t.Fatalf("exit %d", code)
			}
			var kept strings.Builder
			for _, line := range strings.SplitAfter(stdout.String(), "\n") {
				if !strings.HasPrefix(line, "[r2cattack: ") {
					kept.WriteString(line)
				}
			}
			sum := sha256.Sum256([]byte(kept.String()))
			if got := hex.EncodeToString(sum[:]); got != forensicsGolden {
				t.Errorf("stdout sha256 = %s, want %s\n%s", got, forensicsGolden, kept.String())
			}
		})
	}
}

// ablationsGolden is the sha256 of `ablations` stdout with the run-summary
// footer removed: the property B, property C and Figure 5 rows, including
// the dynamic-BTRA victim whose second observation runs a rerolled image.
const ablationsGolden = "8a57d73dbfff021a3006bf725a122d3ec8f9abc9d456c514f8c149ddd9447d02"

func TestAblationsGolden(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			var stdout bytes.Buffer
			if code := run([]string{"-jobs", fmt.Sprint(jobs), "ablations"}, &stdout, io.Discard); code != 0 {
				t.Fatalf("exit %d", code)
			}
			var kept strings.Builder
			for _, line := range strings.SplitAfter(stdout.String(), "\n") {
				if !strings.HasPrefix(line, "[r2cattack: ") {
					kept.WriteString(line)
				}
			}
			sum := sha256.Sum256([]byte(kept.String()))
			if got := hex.EncodeToString(sum[:]); got != ablationsGolden {
				t.Errorf("stdout sha256 = %s, want %s\n%s", got, ablationsGolden, kept.String())
			}
		})
	}
}
