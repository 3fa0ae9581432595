package incident

import (
	"fmt"
	"io"
	"math"
	"sort"

	"r2c/internal/telemetry"
)

// Correlation: fold incident records into per-campaign summaries — the view
// a defender (or ROADMAP's serving fleet) acts on. Everything here is a
// pure function of the canonical record order, so summaries inherit the
// log's any-jobs-width determinism.

// GapBounds bucket inter-probe gaps measured in retired instructions:
// half-decade buckets from 1 to ~10^8. Gap distributions are ordinary
// telemetry histograms, so they merge and quantile like every other one.
var GapBounds = telemetry.LogBounds(1, 3.1622776601683795, 16) // 10^(1/2) growth

// KindCount is one (kind, count) pair in a deterministic slice (maps would
// marshal fine — JSON sorts keys — but slices keep the fold explicit).
type KindCount struct {
	Kind  string `json:"kind"`
	Count int    `json:"count"`
}

// GapSummary describes the inter-probe gap distribution of a campaign.
// All-zero when fewer than two probe points exist (never NaN: the JSON
// encoder rejects it).
type GapSummary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Mean  float64 `json:"mean"`
}

// CampaignSummary aggregates one campaign's incidents: who got hit, how
// fast the probes came, and what the probe pattern looks like.
type CampaignSummary struct {
	Campaign  string      `json:"campaign"`
	Config    string      `json:"config,omitempty"`
	Incidents int         `json:"incidents"`
	Trials    int         `json:"trials"`
	ByKind    []KindCount `json:"by_kind,omitempty"`
	// ByOrigin counts incidents per defense origin (the provenance string)
	// — which planted artifact is actually catching this campaign.
	ByOrigin []KindCount `json:"by_origin,omitempty"`
	// ProbeEvents counts probe-like flight events (near-guard loads and
	// attacker oracle probes) across all snapshots; ProbeRate is probes per
	// incident — how much reconnaissance each detonation cost the attacker.
	ProbeEvents int     `json:"probe_events"`
	ProbeRate   float64 `json:"probe_rate"`
	// Gaps summarizes deltas between consecutive probe addresses' record
	// points (in retired instructions where available, else record order).
	Gaps GapSummary `json:"gaps"`
	// Pattern classifies the probe-address pattern: "linear-scan",
	// "clustered", "crash-restart", "sparse" or "mixed" (the campaign
	// shapes in the paper's detection-probability model).
	Pattern string `json:"pattern"`
}

// probePoints extracts the campaign's probe observations in canonical
// order: each near-guard load / oracle probe on any flight snapshot, plus
// each incident's own faulting address.
type probePoint struct {
	addr  uint64
	instr uint64
}

func campaignProbes(recs []Record) []probePoint {
	var pts []probePoint
	for _, r := range recs {
		for _, f := range r.Flight {
			if f.Kind == "load" || f.Kind == "probe" {
				pts = append(pts, probePoint{addr: f.To, instr: f.Instr})
			}
		}
		if r.Addr != 0 {
			pts = append(pts, probePoint{addr: r.Addr, instr: r.Instr})
		}
	}
	return pts
}

// Correlate folds canonical-order records into per-campaign summaries,
// sorted by campaign name.
func Correlate(recs []Record) []CampaignSummary {
	byCampaign := map[string][]Record{}
	var names []string
	for _, r := range recs {
		if _, ok := byCampaign[r.Campaign]; !ok {
			names = append(names, r.Campaign)
		}
		byCampaign[r.Campaign] = append(byCampaign[r.Campaign], r)
	}
	sort.Strings(names)
	out := make([]CampaignSummary, 0, len(names))
	for _, name := range names {
		out = append(out, summarize(name, byCampaign[name]))
	}
	return out
}

func foldCounts(m map[string]int) []KindCount {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]KindCount, 0, len(keys))
	for _, k := range keys {
		out = append(out, KindCount{Kind: k, Count: m[k]})
	}
	return out
}

func summarize(name string, recs []Record) CampaignSummary {
	s := CampaignSummary{Campaign: name, Incidents: len(recs)}
	kinds, origins := map[string]int{}, map[string]int{}
	trials := map[int]bool{}
	for _, r := range recs {
		if s.Config == "" {
			s.Config = r.Config
		}
		kinds[r.Kind]++
		if r.Origin != "" {
			origins[r.Origin]++
		}
		trials[r.Trial] = true
	}
	s.Trials = len(trials)
	s.ByKind = foldCounts(kinds)
	s.ByOrigin = foldCounts(origins)

	pts := campaignProbes(recs)
	for _, r := range recs {
		for _, f := range r.Flight {
			if f.Kind == "load" || f.Kind == "probe" {
				s.ProbeEvents++
			}
		}
	}
	if len(recs) > 0 {
		s.ProbeRate = float64(s.ProbeEvents) / float64(len(recs))
	}
	s.Gaps = gapSummary(pts)
	s.Pattern = classify(recs, pts)
	return s
}

// gapSummary buckets instruction-count deltas between consecutive probe
// points into GapBounds and reads off the quantiles. Points without
// instruction counts (Instr 0) contribute no gap.
func gapSummary(pts []probePoint) GapSummary {
	h := telemetry.NewHistogram(GapBounds)
	n := 0
	for i := 1; i < len(pts); i++ {
		if pts[i].instr == 0 || pts[i-1].instr == 0 {
			continue
		}
		d := int64(pts[i].instr) - int64(pts[i-1].instr)
		if d < 0 {
			d = -d
		}
		h.Observe(float64(d))
		n++
	}
	if n == 0 {
		return GapSummary{}
	}
	snap := h.Snapshot()
	g := GapSummary{
		Count: n,
		P50:   snap.Quantile(0.50),
		P90:   snap.Quantile(0.90),
		P99:   snap.Quantile(0.99),
		Mean:  snap.Sum / float64(snap.Count),
	}
	// Quantiles over a populated histogram are finite, but guard anyway:
	// NaN poisons json.Marshal for the whole timeline.
	for _, v := range []*float64{&g.P50, &g.P90, &g.P99, &g.Mean} {
		if math.IsNaN(*v) || math.IsInf(*v, 0) {
			*v = 0
		}
	}
	return g
}

// classify labels the campaign's probe-address pattern:
//
//   - "sparse": fewer than 4 probe points — not enough signal.
//   - "crash-restart": many incidents, few probes per incident — the
//     restart-and-probe-again brute force (each probe costs a crash).
//   - "linear-scan": a dominant constant address stride — a sweep.
//   - "clustered": most probes land within one 4KiB page of each other —
//     a focused dig around a leak.
//   - "mixed": none of the above dominates.
func classify(recs []Record, pts []probePoint) string {
	if len(pts) < 4 {
		return "sparse"
	}
	if len(recs) >= 4 && float64(len(pts))/float64(len(recs)) <= 2 {
		return "crash-restart"
	}

	// Stride analysis over probe addresses in observation order.
	strides := map[int64]int{}
	for i := 1; i < len(pts); i++ {
		strides[int64(pts[i].addr)-int64(pts[i-1].addr)]++
	}
	total := len(pts) - 1
	var modal int64
	modalN := 0
	for d, n := range strides {
		if n > modalN || (n == modalN && d < modal) {
			modal, modalN = d, n
		}
	}
	if modal != 0 && float64(modalN)/float64(total) >= 0.6 {
		return "linear-scan"
	}

	// Cluster analysis: the largest set of probes within one 4KiB window.
	addrs := make([]uint64, len(pts))
	for i, p := range pts {
		addrs[i] = p.addr
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	best, lo := 0, 0
	for hi := range addrs {
		for addrs[hi]-addrs[lo] > 4096 {
			lo++
		}
		if n := hi - lo + 1; n > best {
			best = n
		}
	}
	if float64(best)/float64(len(addrs)) >= 0.6 {
		return "clustered"
	}
	return "mixed"
}

// WriteSummary renders the campaign summaries as an aligned text table —
// what r2cattack -forensics appends below the provenance table.
func WriteSummary(w io.Writer, sums []CampaignSummary) {
	if len(sums) == 0 {
		return
	}
	fmt.Fprintf(w, "\nincident correlation (per campaign):\n")
	fmt.Fprintf(w, "%-28s %9s %6s %7s %10s %9s  %s\n",
		"campaign", "incidents", "trials", "probes", "probe/inc", "gap-p50", "pattern")
	for _, s := range sums {
		fmt.Fprintf(w, "%-28s %9d %6d %7d %10.1f %9.0f  %s\n",
			s.Campaign, s.Incidents, s.Trials, s.ProbeEvents, s.ProbeRate, s.Gaps.P50, s.Pattern)
	}
}
