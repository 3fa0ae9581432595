// Package incident is the correlation layer of the security observatory:
// it folds individual trap/fault/divergence events — each carrying a
// snapshot of the process's control-flow flight recorder and the PR 3
// defense provenance — into deterministic incident records, and aggregates
// records across trials and variants into campaign timelines (probe rates,
// inter-probe gap distributions, per-origin hit counts, probe-pattern
// classification per the paper's detection-probability model).
//
// Determinism discipline: records carry only content-derived fields (no
// wall-clock timestamps, no arrival order), IDs are content hashes, and
// every accessor returns records in a content-derived sort order — so the
// incident log and the /incidents JSON are byte-identical at any -jobs
// width, the same contract spans and audit reports honor.
package incident

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"

	"r2c/internal/rt"
)

// FlightFrame is one flight-recorder event in serialized form.
type FlightFrame struct {
	Kind  string `json:"kind"`
	PC    uint64 `json:"pc"`
	To    uint64 `json:"to"`
	Instr uint64 `json:"instr"`
}

// Record is one security incident: a trap detonation, a stopping fault, or
// an MVEE divergence, with enough context to reconstruct the moments before
// it (the flight snapshot) and attribute it to a planted defense artifact
// (the provenance fields).
type Record struct {
	// ID is the content hash of the record (Seal); records with identical
	// content get identical IDs regardless of when or where they fold in.
	ID string `json:"id"`
	// Campaign names the experiment context, e.g. "attack/r2c" or
	// "exec/spec-gcc"; Config the defense configuration; Seed/Trial the
	// victim instance within the campaign.
	Campaign string `json:"campaign"`
	Config   string `json:"config,omitempty"`
	Seed     uint64 `json:"seed"`
	Trial    int    `json:"trial"`
	// Kind is "trap", "fault" or "divergence"; Via names the harness path
	// that observed it ("exec", "probe", "resume", "mvee", ...).
	Kind string `json:"kind"`
	Via  string `json:"via,omitempty"`
	// PC/Addr locate the event; Instr is the victim's retired-instruction
	// count when the run stopped (0 when unknown).
	PC    uint64 `json:"pc,omitempty"`
	Addr  uint64 `json:"addr,omitempty"`
	Instr uint64 `json:"instr,omitempty"`
	// Trap provenance (trap records only): the trap class, containing
	// function, and the defense origin that planted the consumed artifact.
	Trap   string `json:"trap,omitempty"`
	Func   string `json:"func,omitempty"`
	Origin string `json:"origin,omitempty"`
	Source string `json:"source,omitempty"`
	// Detonation accounting at snapshot time (rt.Process.TrapCount/DroppedTraps).
	TrapsTotal   uint64 `json:"traps_total,omitempty"`
	TrapsDropped uint64 `json:"traps_dropped,omitempty"`
	// Flight is the control-flow flight-recorder snapshot, oldest first.
	Flight []FlightFrame `json:"flight,omitempty"`
}

// Seal computes the content-derived ID. Call after all other fields are
// set; folding code relies on identical content hashing identically.
func (r *Record) Seal() {
	h := fnv.New64a()
	w := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }
	w(r.Campaign)
	w(r.Config)
	fmt.Fprintf(h, "%d/%d\x00", r.Seed, r.Trial)
	w(r.Kind)
	w(r.Via)
	fmt.Fprintf(h, "%x/%x/%d\x00", r.PC, r.Addr, r.Instr)
	w(r.Trap)
	w(r.Func)
	w(r.Origin)
	w(r.Source)
	fmt.Fprintf(h, "%d/%d\x00", r.TrapsTotal, r.TrapsDropped)
	for _, f := range r.Flight {
		fmt.Fprintf(h, "%s/%x/%x/%d\x00", f.Kind, f.PC, f.To, f.Instr)
	}
	r.ID = fmt.Sprintf("%016x", h.Sum64())
}

// snapshotFlight serializes the process's flight recorder, oldest first.
func snapshotFlight(p *rt.Process) []FlightFrame {
	if p == nil {
		return nil
	}
	evs := p.Flight.Events()
	if len(evs) == 0 {
		return nil
	}
	out := make([]FlightFrame, len(evs))
	for i, ev := range evs {
		out[i] = FlightFrame{Kind: ev.Kind.String(), PC: ev.PC, To: ev.To, Instr: ev.Instr}
	}
	return out
}

// FromTrap builds a sealed incident record for a booby-trap detonation,
// resolving the PR 3 defense provenance and snapshotting the flight
// recorder. instr is the victim's retired-instruction count at the stop.
func FromTrap(campaign, config string, seed uint64, trial int, via string, p *rt.Process, ev rt.TrapEvent, instr uint64) Record {
	r := Record{
		Campaign: campaign, Config: config, Seed: seed, Trial: trial,
		Kind: "trap", Via: via,
		PC: ev.PC, Addr: ev.Addr, Instr: instr,
		Trap: ev.Kind.String(),
	}
	if p != nil {
		pv := p.TrapProvenance(ev)
		r.Func = pv.Func
		r.Origin = pv.String()
		r.Source = pv.Source
		r.TrapsTotal = p.TrapCount()
		r.TrapsDropped = p.DroppedTraps()
		r.Flight = snapshotFlight(p)
	}
	r.Seal()
	return r
}

// FromFault builds a sealed incident record for a stopping memory fault
// that was not classified as a trap (a plain crash — the signal the
// crash-restart brute-force literature keys on).
func FromFault(campaign, config string, seed uint64, trial int, via string, p *rt.Process, faultAddr uint64, instr uint64) Record {
	r := Record{
		Campaign: campaign, Config: config, Seed: seed, Trial: trial,
		Kind: "fault", Via: via,
		Addr: faultAddr, Instr: instr,
	}
	if p != nil {
		r.PC = p.LastFaultPC()
		r.TrapsTotal = p.TrapCount()
		r.TrapsDropped = p.DroppedTraps()
		r.Flight = snapshotFlight(p)
	}
	r.Seal()
	return r
}

// FromDivergence builds a sealed incident record for an MVEE divergence —
// the supervisor-only signal the paper's Section 7.3 argues complements
// R2C's reactive traps. reason is the supervisor's verdict text (which
// variant diverged, and how: output mismatch, simulator error, or a liveness
// hang); there is no single faulting process behind a divergence, so no
// provenance or flight snapshot attaches.
func FromDivergence(campaign, config string, seed uint64, trial int, via, reason string, instr uint64) Record {
	r := Record{
		Campaign: campaign, Config: config, Seed: seed, Trial: trial,
		Kind: "divergence", Via: via,
		Origin: reason, Instr: instr,
	}
	r.Seal()
	return r
}

// Log collects incident records from concurrent producers (exec workers,
// attack scenarios, the MVEE). It is unbounded by design: a bounded log
// under concurrent adds would drop records nondeterministically, and every
// accessor must be byte-identical at any -jobs width. All methods are
// nil-safe so unwired paths pay nothing.
type Log struct {
	mu   sync.Mutex
	recs []Record
}

// NewLog returns an empty incident log.
func NewLog() *Log { return &Log{} }

// Add appends one record. Nil-safe.
func (l *Log) Add(r Record) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// Len returns the number of collected records. Nil-safe.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Records returns the collected records in the canonical content-derived
// order (campaign, config, seed, trial, instr, kind, pc, id) — arrival
// order never leaks out, so concurrent production cannot perturb output.
// Nil-safe.
func (l *Log) Records() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]Record(nil), l.recs...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Campaign != b.Campaign {
			return a.Campaign < b.Campaign
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Trial != b.Trial {
			return a.Trial < b.Trial
		}
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.ID < b.ID
	})
	return out
}

// Timeline is the /incidents payload: the canonical record list plus the
// per-campaign correlation summaries.
type Timeline struct {
	Total     int               `json:"total"`
	Campaigns []CampaignSummary `json:"campaigns,omitempty"`
	Incidents []Record          `json:"incidents,omitempty"`
}

// Timeline assembles the full observatory view. Nil-safe.
func (l *Log) Timeline() Timeline {
	recs := l.Records()
	return Timeline{Total: len(recs), Campaigns: Correlate(recs), Incidents: recs}
}

// WriteJSON writes the timeline as indented JSON — the -incidents-out
// artifact and the /incidents response body.
func (l *Log) WriteJSON(w io.Writer) error {
	body, err := json.MarshalIndent(l.Timeline(), "", "  ")
	if err != nil {
		return fmt.Errorf("incident: marshal timeline: %w", err)
	}
	_, err = w.Write(append(body, '\n'))
	return err
}
