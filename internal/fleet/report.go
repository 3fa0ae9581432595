package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"r2c/internal/telemetry"
)

// SlotReport is one variant's final state.
type SlotReport struct {
	ID          int    `json:"id"`
	Seed        uint64 `json:"seed"`
	Gen         int    `json:"gen"`
	State       string `json:"state"`
	Served      int    `json:"served"`
	Quarantines int    `json:"quarantines"`
}

// SimReport holds every deterministic result of a fleet run: everything in
// it derives from the simulated clock and the seeded RNG, so two runs with
// the same options marshal byte-identically at any -jobs width.
type SimReport struct {
	Workload             string  `json:"workload"`
	Config               string  `json:"config"`
	Variants             int     `json:"variants"`
	MVEEWidth            int     `json:"mvee_width"`
	Requests             int     `json:"requests"`
	RateRPS              float64 `json:"rate_rps"`
	RebuildLatency       float64 `json:"rebuild_latency_seconds"`
	GoldenServiceSeconds float64 `json:"golden_service_seconds"`

	MakespanSeconds float64 `json:"makespan_seconds"`
	ThroughputRPS   float64 `json:"throughput_rps"`
	LatencyMean     float64 `json:"latency_mean_seconds"`
	LatencyP50      float64 `json:"latency_p50_seconds"`
	LatencyP90      float64 `json:"latency_p90_seconds"`
	LatencyP99      float64 `json:"latency_p99_seconds"`

	AttackRequests     int            `json:"attack_requests"`
	Leaks              int            `json:"leaks"`
	InjectionsAccepted int            `json:"injections_accepted"`
	InjectionsRejected int            `json:"injections_rejected"`
	Detections         map[string]int `json:"detections"`
	SilentCorruptions  int            `json:"silent_corruptions"`
	AttackerWins       int            `json:"attacker_wins"`

	Quarantines  int `json:"quarantines"`
	Recoveries   int `json:"recoveries"`
	HealFailures int `json:"heal_failures"`
	Stalls       int `json:"stalls"`
	// DriftWarnings is always 0; nothing sets it. benchmark/expected.json
	// records the sha256 of this object's JSON for the serve workloads, so
	// the key stays until those digests are recorded again.
	DriftWarnings int          `json:"drift_warnings"`
	Slots         []SlotReport `json:"slots"`
}

// WallReport holds the measured (non-deterministic) side: the real seconds
// the live re-diversification pipeline took per replacement, and the run's
// elapsed time. Time-to-replace is the headline here — it is the window an
// adaptive attacker has against a quarantined-and-rebuilding variant.
type WallReport struct {
	Rebuilds           int     `json:"rebuilds"`
	ReplaceMeanSeconds float64 `json:"replace_mean_seconds"`
	ReplaceP99Seconds  float64 `json:"replace_p99_seconds"`
	ElapsedSeconds     float64 `json:"elapsed_seconds"`
}

// Report is a completed fleet run.
type Report struct {
	Sim  SimReport  `json:"sim"`
	Wall WallReport `json:"wall"`
}

// DetectionsTotal sums detections across kinds.
func (r *Report) DetectionsTotal() int {
	n := 0
	for _, c := range r.Sim.Detections {
		n += c
	}
	return n
}

// WriteJSON writes the full report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	body, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: marshal report: %w", err)
	}
	_, err = w.Write(append(body, '\n'))
	return err
}

// WriteText renders the human-readable run summary: the steady-state
// serving numbers first, then the attack/detect/heal loop's accounting.
func (r *Report) WriteText(w io.Writer) error {
	s, wl := &r.Sim, &r.Wall
	mode := "single-variant"
	if s.MVEEWidth >= 2 {
		mode = fmt.Sprintf("mvee×%d", s.MVEEWidth)
	}
	fmt.Fprintf(w, "fleet %s/%s: %d variants (%s), %d requests @ %.1f req/s\n",
		s.Workload, s.Config, s.Variants, mode, s.Requests, s.RateRPS)
	fmt.Fprintf(w, "  throughput  %.1f req/s over %.3fs simulated (golden service %.6fs)\n",
		s.ThroughputRPS, s.MakespanSeconds, s.GoldenServiceSeconds)
	fmt.Fprintf(w, "  latency     p50 %.6fs  p90 %.6fs  p99 %.6fs  mean %.6fs\n",
		s.LatencyP50, s.LatencyP90, s.LatencyP99, s.LatencyMean)
	if s.AttackRequests > 0 || s.InjectionsAccepted+s.InjectionsRejected > 0 {
		fmt.Fprintf(w, "  attack      %d malicious requests, %d leaks; injections %d accepted / %d rejected\n",
			s.AttackRequests, s.Leaks, s.InjectionsAccepted, s.InjectionsRejected)
	}
	if n := r.DetectionsTotal(); n > 0 {
		kinds := make([]string, 0, len(s.Detections))
		for k := range s.Detections {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(w, "  detections  %d total:", n)
		for _, k := range kinds {
			fmt.Fprintf(w, " %s=%d", k, s.Detections[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  healing     %d quarantines, %d recoveries, %d failures, %d stalls (quarantine window %.3fs sim)\n",
		s.Quarantines, s.Recoveries, s.HealFailures, s.Stalls, s.RebuildLatency)
	if s.SilentCorruptions > 0 || s.AttackerWins > 0 {
		fmt.Fprintf(w, "  ground truth: %d silent corruptions, %d attacker wins slipped past detection\n",
			s.SilentCorruptions, s.AttackerWins)
	}
	if wl.Rebuilds > 0 {
		fmt.Fprintf(w, "  time-to-replace (wall): mean %.4fs  p99 %.4fs over %d rebuilds\n",
			wl.ReplaceMeanSeconds, wl.ReplaceP99Seconds, wl.Rebuilds)
	}
	fmt.Fprintf(w, "  wall elapsed %.3fs\n", wl.ElapsedSeconds)
	return nil
}

// Publish exports the run's headline numbers as gauges so -metrics-out and
// the /metrics endpoint carry them alongside the live counters and
// histograms the serve loop already fed.
func (r *Report) Publish(obs *telemetry.Observer) {
	set := func(name string, v float64) { obs.Gauge(name).Set(v) }
	set("fleet.throughput.rps", r.Sim.ThroughputRPS)
	set("fleet.latency.p50.seconds", r.Sim.LatencyP50)
	set("fleet.latency.p90.seconds", r.Sim.LatencyP90)
	set("fleet.latency.p99.seconds", r.Sim.LatencyP99)
	set("fleet.makespan.seconds", r.Sim.MakespanSeconds)
	if r.Wall.Rebuilds > 0 {
		set("fleet.replace.wall.mean.seconds", r.Wall.ReplaceMeanSeconds)
	}
}
