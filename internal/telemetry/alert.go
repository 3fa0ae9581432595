package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Declarative alert rules over registry metrics — the CI-facing half of the
// security observatory. A rules file is line-oriented:
//
//	# attack pressure
//	trap-storm:    rate(rt.traps) > 100
//	any-trap:      count(rt.traps) > 0
//	slow-cells:    p99(exec.cell.seconds) > 0.5
//	cell-failures: count(exec.cell.failures) >= 1
//	guard-pages:   value(rt.btdp.guard_pages) < 4
//	btdp-reads:    count(attack.detections{via=btdp-read}) > 2
//
// Each rule is NAME ':' FN '(' METRIC ')' OP THRESHOLD. A bare metric name
// aggregates across every label set sharing that base name; a full key with
// {k=v,...} matches exactly one series. Rules are evaluated against registry
// snapshots — live on /alerts and once at exit, where any firing rule turns
// into a nonzero harness exit code so CI catches an attack-pressure or
// latency regression the same way it catches a test failure.

// AlertRule is one parsed threshold rule.
type AlertRule struct {
	Name      string  // rule identifier (unique per file)
	Fn        string  // count | value | sum | mean | rate | p50 | p90 | p99 | quantile
	Metric    string  // metric base name or full key with labels
	Arg       float64 // quantile argument for fn "quantile"
	Op        string  // > >= < <= == !=
	Threshold float64
	Line      int // source line, for error messages
}

// Expr renders the rule's expression back in canonical form.
func (r AlertRule) Expr() string {
	if r.Fn == "quantile" {
		return fmt.Sprintf("quantile(%s, %g) %s %g", r.Metric, r.Arg, r.Op, r.Threshold)
	}
	return fmt.Sprintf("%s(%s) %s %g", r.Fn, r.Metric, r.Op, r.Threshold)
}

// AlertState is the outcome of evaluating one rule against a snapshot.
type AlertState struct {
	Rule      string  `json:"rule"`
	Expr      string  `json:"expr"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Firing    bool    `json:"firing"`
	// Missing marks a rule whose metric has no data in the snapshot (or an
	// undefined quantile); missing rules never fire.
	Missing bool `json:"missing,omitempty"`
}

var alertFns = map[string]bool{
	"count": true, "value": true, "sum": true, "mean": true, "rate": true,
	"p50": true, "p90": true, "p99": true, "quantile": true,
}

var alertOps = map[string]bool{">": true, ">=": true, "<": true, "<=": true, "==": true, "!=": true}

// ParseAlertRules reads a rules file. Blank lines and #-comments are
// skipped; any malformed line is an error naming its line number, so a bad
// rules file fails the run up front rather than silently never firing.
func ParseAlertRules(r io.Reader) ([]AlertRule, error) {
	var rules []AlertRule
	seen := map[string]int{}
	sc := bufio.NewScanner(r)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rule, err := parseAlertRule(line, ln)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[rule.Name]; dup {
			return nil, fmt.Errorf("alert rules line %d: duplicate rule name %q (first defined on line %d)", ln, rule.Name, prev)
		}
		seen[rule.Name] = ln
		rules = append(rules, rule)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("alert rules: %w", err)
	}
	return rules, nil
}

// LoadAlertRules reads and parses a rules file from disk.
func LoadAlertRules(path string) ([]AlertRule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("alert rules: %w", err)
	}
	defer f.Close()
	rules, err := ParseAlertRules(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rules, nil
}

func parseAlertRule(line string, ln int) (AlertRule, error) {
	bad := func(format string, args ...any) (AlertRule, error) {
		return AlertRule{}, fmt.Errorf("alert rules line %d: %s (in %q)", ln, fmt.Sprintf(format, args...), line)
	}
	name, rest, ok := strings.Cut(line, ":")
	if !ok {
		return bad("missing ':' after rule name")
	}
	name = strings.TrimSpace(name)
	if name == "" {
		return bad("empty rule name")
	}
	rest = strings.TrimSpace(rest)

	open := strings.IndexByte(rest, '(')
	closeIdx := strings.LastIndexByte(rest, ')')
	if open < 0 || closeIdx < open {
		return bad("expected FN(METRIC) OP THRESHOLD")
	}
	fn := strings.TrimSpace(rest[:open])
	if !alertFns[fn] {
		return bad("unknown function %q (want count, value, sum, mean, rate, p50, p90, p99 or quantile)", fn)
	}
	inner := strings.TrimSpace(rest[open+1 : closeIdx])
	rule := AlertRule{Name: name, Fn: fn, Line: ln}
	if fn == "quantile" {
		metric, argStr, ok := strings.Cut(inner, ",")
		if !ok {
			return bad("quantile needs two arguments: quantile(METRIC, q)")
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(argStr), 64)
		// !(q >= 0 && q <= 1) also rejects NaN, which every comparison fails.
		if err != nil || !(q >= 0 && q <= 1) {
			return bad("quantile argument %q must be a number in [0,1]", strings.TrimSpace(argStr))
		}
		rule.Metric, rule.Arg = strings.TrimSpace(metric), q
	} else {
		rule.Metric = inner
	}
	if rule.Metric == "" {
		return bad("empty metric name")
	}

	tail := strings.Fields(rest[closeIdx+1:])
	if len(tail) != 2 {
		return bad("expected OP THRESHOLD after the metric")
	}
	if !alertOps[tail[0]] {
		return bad("unknown comparison %q (want >, >=, <, <=, == or !=)", tail[0])
	}
	thr, err := strconv.ParseFloat(tail[1], 64)
	if err != nil {
		return bad("threshold %q is not a number", tail[1])
	}
	// A NaN threshold makes every comparison but != false, and /alerts
	// cannot encode a non-finite threshold as JSON.
	if math.IsNaN(thr) || math.IsInf(thr, 0) {
		return bad("threshold %q must be a finite number", tail[1])
	}
	rule.Op, rule.Threshold = tail[0], thr
	return rule, nil
}

// EvalAlerts evaluates every rule against a registry snapshot. elapsed is
// the observation window rate() divides by (clamped to at least 1ns);
// results come back in rule-file order. A metric with no data marks the
// rule Missing rather than firing, so an alert on rt.traps does not trip on
// a run that never armed a trap.
func EvalAlerts(rules []AlertRule, snap *Snapshot, elapsed time.Duration) []AlertState {
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	out := make([]AlertState, 0, len(rules))
	for _, r := range rules {
		st := AlertState{Rule: r.Name, Expr: r.Expr(), Threshold: r.Threshold}
		v, ok := evalAlertFn(r, snap, elapsed)
		st.Value = v
		if !ok || math.IsNaN(v) {
			st.Missing = true
			st.Value = 0
		} else {
			st.Firing = alertCompare(v, r.Op, r.Threshold)
		}
		out = append(out, st)
	}
	return out
}

func alertCompare(v float64, op string, thr float64) bool {
	switch op {
	case ">":
		return v > thr
	case ">=":
		return v >= thr
	case "<":
		return v < thr
	case "<=":
		return v <= thr
	case "==":
		return v == thr
	case "!=":
		return v != thr
	}
	return false
}

// metricKeys collects every snapshot key matching the rule's metric
// reference: an exact key when the reference carries labels, otherwise all
// keys whose base name matches.
func metricKeys[T any](m map[string]T, metric string) []string {
	if strings.Contains(metric, "{") {
		if _, ok := m[metric]; ok {
			return []string{metric}
		}
		return nil
	}
	var keys []string
	for k := range m {
		name, _ := ParseKey(k)
		if name == metric {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func evalAlertFn(r AlertRule, snap *Snapshot, elapsed time.Duration) (float64, bool) {
	if snap == nil {
		return 0, false
	}
	switch r.Fn {
	case "count", "rate":
		// Counters first; histograms also expose a count.
		var total uint64
		found := false
		for _, k := range metricKeys(snap.Counters, r.Metric) {
			total += snap.Counters[k]
			found = true
		}
		if !found {
			for _, k := range metricKeys(snap.Histograms, r.Metric) {
				total += snap.Histograms[k].Count
				found = true
			}
		}
		if !found {
			return 0, false
		}
		if r.Fn == "rate" {
			return float64(total) / elapsed.Seconds(), true
		}
		return float64(total), true
	case "value":
		keys := metricKeys(snap.Gauges, r.Metric)
		if len(keys) == 0 {
			return 0, false
		}
		// A bare name matching several gauge series takes the max — the
		// conservative choice for threshold alerts.
		v := snap.Gauges[keys[0]]
		for _, k := range keys[1:] {
			if snap.Gauges[k] > v {
				v = snap.Gauges[k]
			}
		}
		return v, true
	case "sum", "mean":
		var sum float64
		var n uint64
		found := false
		for _, k := range metricKeys(snap.Histograms, r.Metric) {
			sum += snap.Histograms[k].Sum
			n += snap.Histograms[k].Count
			found = true
		}
		if !found {
			return 0, false
		}
		if r.Fn == "mean" {
			if n == 0 {
				return 0, false
			}
			return sum / float64(n), true
		}
		return sum, true
	default: // p50 / p90 / p99 / quantile
		q := r.Arg
		switch r.Fn {
		case "p50":
			q = 0.50
		case "p90":
			q = 0.90
		case "p99":
			q = 0.99
		}
		keys := metricKeys(snap.Histograms, r.Metric)
		if len(keys) == 0 {
			return 0, false
		}
		merged := snap.Histograms[keys[0]]
		for _, k := range keys[1:] {
			m, err := merged.Merge(snap.Histograms[k])
			if err != nil {
				return 0, false
			}
			merged = m
		}
		v := merged.Quantile(q)
		return v, !math.IsNaN(v)
	}
}

// FiringCount returns how many evaluated rules are firing.
func FiringCount(states []AlertState) int {
	n := 0
	for _, s := range states {
		if s.Firing {
			n++
		}
	}
	return n
}

// WriteAlertTable renders evaluated rules as an aligned text table — what
// the harnesses print at exit when -alert-rules is set.
func WriteAlertTable(w io.Writer, states []AlertState) {
	fmt.Fprintf(w, "%-8s %-20s %12s  %s\n", "state", "rule", "value", "expr")
	for _, s := range states {
		state := "ok"
		switch {
		case s.Firing:
			state = "FIRING"
		case s.Missing:
			state = "missing"
		}
		fmt.Fprintf(w, "%-8s %-20s %12.6g  %s\n", state, s.Rule, s.Value, s.Expr)
	}
}
