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
//
// The windowed functions evaluate against the time-series rings instead of
// the final snapshot, so a rule can fire on a *trend* mid-run — rising
// sojourn p99, quarantine churn, heal-latency creep — long before the end
// state shows it:
//
//	sojourn-burn:     burn_rate(fleet.sojourn.p99, 5, 50) > 2
//	quarantine-churn: rate_over(fleet.quarantines, 20) > 1
//	slow-window:      p99_over(fleet.variant.sojourn, 10) > 0.5
//	load-creep:       mean_over(fleet.slots.quarantined, 20) > 1.5
//
// Window arguments are in the sampler's clock units (simulated seconds for
// the fleet, completed cells for exec). rate_over is the summed per-series
// rate of change over the trailing window; mean_over / p99_over aggregate
// the windowed sample values; burn_rate is the short-window rate divided by
// the long-window rate — the scale-free "is it getting worse *right now*"
// signal. A windowed rule without a series set (or with no samples in the
// window) is Missing, never firing.

// AlertRule is one parsed threshold rule.
type AlertRule struct {
	Name      string  // rule identifier (unique per file)
	Fn        string  // count | value | sum | mean | rate | p50 | p90 | p99 | quantile | rate_over | mean_over | p99_over | burn_rate
	Metric    string  // metric base name or full key with labels
	Arg       float64 // quantile argument for fn "quantile"
	Window    float64 // trailing window for the windowed fns (burn_rate: the short window)
	Window2   float64 // burn_rate's long window
	Op        string  // > >= < <= == !=
	Threshold float64
	Line      int // source line, for error messages
}

// Windowed reports whether the rule evaluates against the time-series rings
// rather than the registry snapshot.
func (r AlertRule) Windowed() bool { return windowedFns[r.Fn] }

// Expr renders the rule's expression back in canonical form.
func (r AlertRule) Expr() string {
	switch {
	case r.Fn == "quantile":
		return fmt.Sprintf("quantile(%s, %g) %s %g", r.Metric, r.Arg, r.Op, r.Threshold)
	case r.Fn == "burn_rate":
		return fmt.Sprintf("burn_rate(%s, %g, %g) %s %g", r.Metric, r.Window, r.Window2, r.Op, r.Threshold)
	case windowedFns[r.Fn]:
		return fmt.Sprintf("%s(%s, %g) %s %g", r.Fn, r.Metric, r.Window, r.Op, r.Threshold)
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
	"rate_over": true, "mean_over": true, "p99_over": true, "burn_rate": true,
}

// windowedFns evaluate against the time-series rings.
var windowedFns = map[string]bool{
	"rate_over": true, "mean_over": true, "p99_over": true, "burn_rate": true,
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
		return bad("unknown function %q (want count, value, sum, mean, rate, p50, p90, p99, quantile, rate_over, mean_over, p99_over or burn_rate)", fn)
	}
	inner := strings.TrimSpace(rest[open+1 : closeIdx])
	rule := AlertRule{Name: name, Fn: fn, Line: ln}
	switch {
	case fn == "quantile":
		metric, argStr, ok := strings.Cut(inner, ",")
		if !ok {
			return bad("quantile needs two arguments: quantile(METRIC, q)")
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(argStr), 64)
		if err != nil || q < 0 || q > 1 {
			return bad("quantile argument %q must be a number in [0,1]", strings.TrimSpace(argStr))
		}
		rule.Metric, rule.Arg = strings.TrimSpace(metric), q
	case fn == "burn_rate":
		parts := strings.Split(inner, ",")
		if len(parts) != 3 {
			return bad("burn_rate needs three arguments: burn_rate(METRIC, SHORT, LONG)")
		}
		short, err1 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		long, err2 := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err1 != nil || err2 != nil || short <= 0 || long <= short {
			return bad("burn_rate windows must satisfy 0 < SHORT < LONG, got %q, %q",
				strings.TrimSpace(parts[1]), strings.TrimSpace(parts[2]))
		}
		rule.Metric, rule.Window, rule.Window2 = strings.TrimSpace(parts[0]), short, long
	case windowedFns[fn]:
		metric, argStr, ok := strings.Cut(inner, ",")
		if !ok {
			return bad("%s needs two arguments: %s(METRIC, WINDOW)", fn, fn)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(argStr), 64)
		if err != nil || w <= 0 {
			return bad("%s window %q must be a positive number", fn, strings.TrimSpace(argStr))
		}
		rule.Metric, rule.Window = strings.TrimSpace(metric), w
	default:
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
	rule.Op, rule.Threshold = tail[0], thr
	return rule, nil
}

// EvalAlerts evaluates every rule against one registry snapshot. elapsed is
// the observation window rate() divides by (clamped to at least 1ns);
// results come back in rule-file order. A metric with no data marks the
// rule Missing rather than firing, so an alert on rt.traps does not trip on
// a run that never armed a trap. Windowed rules are Missing here — they
// need a series snapshot; use EvalAlertsSeries.
func EvalAlerts(rules []AlertRule, snap *Snapshot, elapsed time.Duration) []AlertState {
	return EvalAlertsSeries(rules, snap, nil, elapsed)
}

// EvalAlertsSeries evaluates rules against a registry snapshot plus a
// time-series snapshot: point-in-time functions read snap, windowed
// functions read series. A nil series snapshot marks every windowed rule
// Missing, so rules files mixing both kinds stay loadable by harnesses that
// never sample.
func EvalAlertsSeries(rules []AlertRule, snap *Snapshot, series *SeriesSnapshot, elapsed time.Duration) []AlertState {
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	out := make([]AlertState, 0, len(rules))
	for _, r := range rules {
		st := AlertState{Rule: r.Name, Expr: r.Expr(), Threshold: r.Threshold}
		var (
			v  float64
			ok bool
		)
		if r.Windowed() {
			v, ok = evalWindowFn(r, series)
		} else {
			v, ok = evalAlertFn(r, snap, elapsed)
		}
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

// evalWindowFn evaluates one windowed rule against a series snapshot.
func evalWindowFn(r AlertRule, sn *SeriesSnapshot) (float64, bool) {
	if sn == nil {
		return 0, false
	}
	switch r.Fn {
	case "rate_over":
		return sn.windowRate(r.Metric, r.Window)
	case "burn_rate":
		short, ok1 := sn.windowRate(r.Metric, r.Window)
		long, ok2 := sn.windowRate(r.Metric, r.Window2)
		// A flat long window has no baseline rate to burn against; the
		// ratio is undefined, not infinite pressure.
		if !ok1 || !ok2 || long == 0 {
			return 0, false
		}
		return short / long, true
	case "mean_over":
		vals := sn.windowValues(r.Metric, r.Window)
		if len(vals) == 0 {
			return 0, false
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return sum / float64(len(vals)), true
	case "p99_over":
		vals := sn.windowValues(r.Metric, r.Window)
		if len(vals) == 0 {
			return 0, false
		}
		sort.Float64s(vals)
		// Nearest-rank p99 over the raw windowed samples.
		idx := int(math.Ceil(0.99*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		return vals[idx], true
	}
	return 0, false
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

// metricSeries collects every snapshot key matching the rule's metric
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
