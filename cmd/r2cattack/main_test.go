package main

import (
	"bytes"
	"io"
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
