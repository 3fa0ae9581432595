package perf

import (
	"fmt"
	"io"
	"math"
)

// driftPct is the drift, in percent of the baseline value, a metric may
// show before the Judge flags it: 1e-9 relative. Modeled numbers are
// bit-equal on an unchanged tree; the allowance absorbs last-ulp float
// differences across Go versions and architectures, nothing more, so any
// real drift fails.
const driftPct = 100 * 1e-9

// Verdict is the per-metric outcome of a comparison.
type Verdict string

const (
	// VerdictOK: within the drift allowance.
	VerdictOK Verdict = "ok"
	// VerdictRegressed: moved the worse way beyond the allowance.
	VerdictRegressed Verdict = "regressed"
	// VerdictImproved: moved the better way beyond the allowance. It fails
	// the comparison like a regression: a modeled change must come with a
	// refreshed baseline (make bench).
	VerdictImproved Verdict = "improved"
	// VerdictMismatch: an exact metric drifted; the runs are not comparing
	// the same work.
	VerdictMismatch Verdict = "mismatch"
	// VerdictMissing: present in the baseline, absent from the fresh run.
	VerdictMissing Verdict = "missing"
	// VerdictAdded: absent from the baseline, present in the fresh run.
	VerdictAdded Verdict = "added"
)

// Delta is one metric's comparison row.
type Delta struct {
	Name    string
	Unit    string
	Old     float64
	New     float64
	Pct     float64 // (new-old)/|old| * 100; NaN when old == 0
	Verdict Verdict
}

// Report is the full outcome of judging a fresh run against a baseline.
type Report struct {
	Label  string
	Deltas []Delta
}

// Judge compares a fresh baseline against a committed one and produces the
// per-metric verdicts, in metric-key order. old is the committed
// reference, fresh the new run.
func Judge(old, fresh *Baseline) *Report {
	r := &Report{Label: old.Label}
	for _, k := range old.MetricKeys() {
		om := old.Metrics[k]
		d := Delta{Name: k, Unit: om.Unit, Old: om.Value, New: math.NaN(), Pct: math.NaN(), Verdict: VerdictMissing}
		if nm, ok := fresh.Metrics[k]; ok {
			d.New, d.Pct = nm.Value, pctDelta(om.Value, nm.Value)
			d.Verdict = verdictFor(om.Better, om.Value, nm.Value, d.Pct)
		}
		r.Deltas = append(r.Deltas, d)
	}
	for _, k := range fresh.MetricKeys() {
		if _, ok := old.Metrics[k]; !ok {
			nm := fresh.Metrics[k]
			r.Deltas = append(r.Deltas, Delta{Name: k, Unit: nm.Unit, Old: math.NaN(), New: nm.Value, Pct: math.NaN(), Verdict: VerdictAdded})
		}
	}
	return r
}

// pctDelta is the signed percent change from old to new, NaN when old is 0
// (no meaningful relative change) unless new is also 0.
func pctDelta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.NaN()
	}
	return (new - old) / math.Abs(old) * 100
}

// verdictFor classifies one value change under the metric's improvement
// direction. Beyond the allowance — including any move off a zero baseline,
// where pct is NaN — the sign of new−old picks improved or regressed.
func verdictFor(better string, old, new, pct float64) Verdict {
	switch {
	case math.Abs(pct) <= driftPct:
		return VerdictOK
	case better == BetterExact:
		return VerdictMismatch
	case better == BetterHigher && new > old, better != BetterHigher && new < old:
		return VerdictImproved
	default:
		return VerdictRegressed
	}
}

// Failed reports whether the comparison should gate: any row that moved
// beyond the allowance, in either direction, or went missing. Added rows
// do not gate; a new metric is not a moved one.
func (r *Report) Failed() bool {
	for _, d := range r.Deltas {
		switch d.Verdict {
		case VerdictRegressed, VerdictImproved, VerdictMismatch, VerdictMissing:
			return true
		}
	}
	return false
}

// Counts tallies the verdicts.
func (r *Report) Counts() map[Verdict]int {
	c := map[Verdict]int{}
	for _, d := range r.Deltas {
		c[d.Verdict]++
	}
	return c
}

// WriteTable renders the comparison table: one row per metric, then the
// verdict tally.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "perf compare vs baseline %q\n", r.Label)
	fmt.Fprintf(w, "%-58s %14s %14s %9s  %s\n", "metric", "baseline", "current", "delta", "verdict")
	for _, d := range r.Deltas {
		fmt.Fprintf(w, "%-58s %14s %14s %9s  %s\n", d.Name, fmtVal(d.Old), fmtVal(d.New), fmtPct(d.Pct), d.Verdict)
	}
	c := r.Counts()
	fmt.Fprintf(w, "[%d ok, %d regressed, %d improved, %d mismatch, %d missing, %d added]\n",
		c[VerdictOK], c[VerdictRegressed], c[VerdictImproved], c[VerdictMismatch], c[VerdictMissing], c[VerdictAdded])
}

func fmtVal(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func fmtPct(p float64) string {
	if math.IsNaN(p) {
		return "n/a"
	}
	return fmt.Sprintf("%+.2f%%", p)
}
