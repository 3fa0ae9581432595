package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// The r2cbench flag set: every flag's name, type and default. Changing any of
// them changes the CLI's contract.
const wantFlags = `-alert-rules string
-baseline string
-cell-fuel uint
-compare string
-flight int
-incidents-out string
-jobs int
-journal string
-listen string
-metrics-out string
-profile
-profile-format string (default "table")
-retries int
-runs int (default 3)
-scale int (default 1)
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

// A second run on the same -journal file replays every cell the first one
// journaled: it announces the resume on stderr, counts the replays in the
// footer, and prints the same table.
func TestJournalReplay(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	args := []string{"-scale", "8", "-runs", "1", "-journal", journal, "table2"}
	var out1, out2, err1, err2 bytes.Buffer
	if code := run(args, &out1, &err1); code != 0 {
		t.Fatalf("first run exited %d: %s", code, err1.String())
	}
	if strings.Contains(err1.String(), "[resuming:") {
		t.Errorf("first run on an empty journal announced a resume: %s", err1.String())
	}
	if code := run(args, &out2, &err2); code != 0 {
		t.Fatalf("second run exited %d: %s", code, err2.String())
	}
	if want := "[resuming: 12 journaled cells in " + journal + "]"; !strings.Contains(err2.String(), want) {
		t.Errorf("second run's stderr lacks %q:\n%s", want, err2.String())
	}
	table1, footer1 := splitRun(out1.String())
	table2, footer2 := splitRun(out2.String())
	if strings.Contains(footer1, "journal:") {
		t.Errorf("first run's footer counts replays: %s", footer1)
	}
	if !strings.Contains(footer2, "journal: 12 cells replayed") {
		t.Errorf("second run's footer lacks the replay count: %s", footer2)
	}
	if table1 != table2 {
		t.Errorf("replayed table differs:\n--- first ---\n%s\n--- second ---\n%s", table1, table2)
	}
}

// splitRun separates r2cbench's stdout into the experiment output, with
// the wall-clock "[table2 done in …]" line dropped, and the footer line.
func splitRun(out string) (table, footer string) {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "[r2cbench: "):
			footer = line
		case !strings.HasPrefix(line, "[table2 done in "):
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n"), footer
}
