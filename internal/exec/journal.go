package exec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"r2c/internal/vm"
)

// journalKey identifies one journaled cell: the content-addressed build key
// plus the machine profile name. The profile matters because the same build
// produces different cycle counts on different modeled machines — Figure 6
// runs the identical image on four of them.
type journalKey struct {
	Key
	Prof string
}

// journalEntry is one JSONL line of the run journal.
type journalEntry struct {
	Key    Key        `json:"key"`
	Prof   string     `json:"prof"`
	Result *vm.Result `json:"result"`
}

// Journal persists completed cell results so an interrupted sweep can be
// resumed with -resume: cells whose (build key, machine profile) already
// appear in the journal replay their recorded Result without re-executing.
// Results are pure functions of the key (the same purity the build cache
// exploits), and JSON round-trips Go's float64 and integer fields exactly,
// so a replayed cell is byte-identical to a re-executed one in every table
// the drivers print.
//
// The format is append-only JSONL; a run killed mid-write leaves at most one
// truncated final line, which Open discards. Only successful cells are
// journaled — failures must re-execute.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	seen map[journalKey]*vm.Result
	hits uint64
}

// OpenJournal opens (creating if absent) the journal at path, loads every
// intact entry, and positions for appending new ones. The returned journal
// serves lookups from the loaded set, so a -resume run sees everything the
// killed run completed. A torn tail (an undecodable or newline-less final
// line) is truncated away first, so the next append starts a fresh line
// instead of gluing onto the fragment.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, seen: make(map[journalKey]*vm.Result)}
	r := bufio.NewReader(f)
	var intact int64 // end of the last intact line
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			break // a non-empty line here lost its newline: torn
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: read %s: %w", path, err)
		}
		if len(bytes.TrimSpace(line)) > 0 {
			var e journalEntry
			if err := json.Unmarshal(line, &e); err != nil {
				// A kill mid-append leaves one torn trailing line;
				// everything before it is intact.
				break
			}
			if e.Result != nil {
				j.seen[journalKey{e.Key, e.Prof}] = e.Result
			}
		}
		intact += int64(len(line))
	}
	if err := f.Truncate(intact); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Seek(intact, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.w = bufio.NewWriter(f)
	return j, nil
}

// Len returns the number of loaded + recorded entries.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// Hits returns how many lookups were served from the journal.
func (j *Journal) Hits() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hits
}

// Lookup returns the journaled result for (k, prof), if any. Nil-safe.
func (j *Journal) Lookup(k Key, prof string) (*vm.Result, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	res, ok := j.seen[journalKey{k, prof}]
	if ok {
		j.hits++
	}
	return res, ok
}

// Record appends a completed cell's result and remembers it for Lookup.
// Each entry is written as one line and flushed, so at most the entry being
// written when the process dies is lost. Nil-safe.
func (j *Journal) Record(k Key, prof string, res *vm.Result) error {
	if j == nil {
		return nil
	}
	line, err := json.Marshal(journalEntry{Key: k, Prof: prof, Result: res})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seen[journalKey{k, prof}] = res
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return j.w.Flush()
}

// Close flushes and closes the backing file. Nil-safe.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	ferr := j.w.Flush()
	cerr := j.f.Close()
	j.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}
