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
-cell-timeout duration
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
-resume
-retries int
-retry-backoff duration
-sample-every int
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

// incidentsGolden is the sha256 of -incidents-out for `-trials 2 -flight 16
// sidechannel-hardened`: six sealed trap incidents, each carrying its
// process's traps_total/traps_dropped and a content-derived ID. Any change to
// how a detonation is counted, recorded or sealed moves it.
const incidentsGolden = "88167f37a348ccdb36002c4b15488865058ccd330727ddbfeb8b712d87fc82a4"

func TestIncidentsGolden(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "inc.json")
			args := []string{"-jobs", fmt.Sprint(jobs), "-trials", "2", "-flight", "16",
				"-incidents-out", out, "sidechannel-hardened"}
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
		})
	}
}
