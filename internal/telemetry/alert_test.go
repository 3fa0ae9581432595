package telemetry

import (
	"strings"
	"testing"
	"time"
)

func mustParseRules(t *testing.T, text string) []AlertRule {
	t.Helper()
	rules, err := ParseAlertRules(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseAlertRules: %v", err)
	}
	return rules
}

func TestParseAlertRules(t *testing.T) {
	rules := mustParseRules(t, `
# attack pressure
trap-storm: rate(rt.traps) > 100
any-trap:   count(rt.traps) >= 1
slow-p99:   p99(exec.cell.seconds) > 0.5
guards:     value(rt.btdp.guard_pages) < 4
tail:       quantile(exec.run.cycles, 0.9) > 1e9
labeled:    count(attack.detections{via=btdp-read}) != 0
`)
	if len(rules) != 6 {
		t.Fatalf("parsed %d rules, want 6", len(rules))
	}
	r := rules[0]
	if r.Name != "trap-storm" || r.Fn != "rate" || r.Metric != "rt.traps" || r.Op != ">" || r.Threshold != 100 {
		t.Fatalf("rule 0 = %+v", r)
	}
	if rules[4].Arg != 0.9 {
		t.Fatalf("quantile arg = %v, want 0.9", rules[4].Arg)
	}
	if rules[5].Metric != "attack.detections{via=btdp-read}" {
		t.Fatalf("labeled metric = %q", rules[5].Metric)
	}
	if got := rules[2].Expr(); got != "p99(exec.cell.seconds) > 0.5" {
		t.Fatalf("Expr = %q", got)
	}
}

func TestParseAlertRulesErrors(t *testing.T) {
	for _, tc := range []struct{ text, wantErr string }{
		{"no-colon rate(x) > 1", "missing ':'"},
		{"r: frobnicate(x) > 1", "unknown function"},
		{"r: rate(x) ~ 1", "unknown comparison"},
		{"r: rate(x) > banana", "not a number"},
		{"r: rate() > 1", "empty metric"},
		{"r: quantile(x) > 1", "two arguments"},
		{"r: quantile(x, 3) > 1", "[0,1]"},
		{"r: quantile(x, NaN) > 1", "[0,1]"},
		{"r: count(x) > NaN", "finite"},
		{"r: count(x) != NaN", "finite"},
		{"r: count(x) < +Inf", "finite"},
		{"r: count(x) > -Inf", "finite"},
		// Windowed functions are not part of the grammar: a rules file
		// using them fails up front with its line number.
		{"r: burn_rate(fleet.sojourn.p99, 2, 20) > 3", "unknown function"},
		{"r: rate_over(fleet.quarantines, 5) > 1", "unknown function"},
		{"r: rate(x) >", "OP THRESHOLD"},
		{"a: count(x) > 1\na: count(y) > 2", "duplicate rule name"},
	} {
		_, err := ParseAlertRules(strings.NewReader(tc.text))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "line ") {
			t.Errorf("ParseAlertRules(%q) err = %v, want substring %q", tc.text, err, tc.wantErr)
		}
	}
}

func TestEvalAlerts(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt.traps", "kind", "btra").Add(30)
	reg.Counter("rt.traps", "kind", "btdp").Add(12)
	reg.Gauge("rt.btdp.guard_pages").Set(2)
	h := reg.Histogram("exec.cell.seconds", LogBounds(0.001, 10, 6))
	for i := 0; i < 95; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 5; i++ {
		h.Observe(5.0)
	}
	snap := reg.Snapshot()

	rules := mustParseRules(t, `
any-trap:   count(rt.traps) > 0
btra-only:  count(rt.traps{kind=btra}) == 30
trap-rate:  rate(rt.traps) > 10
low-guards: value(rt.btdp.guard_pages) < 4
slow-p99:   p99(exec.cell.seconds) > 1
fast-p50:   p50(exec.cell.seconds) > 1
no-data:    count(never.recorded) > 0
empty-hist: p99(never.observed) > 1
mean-ok:    mean(exec.cell.seconds) < 1
`)
	states := EvalAlerts(rules, snap, 2*time.Second)
	byName := map[string]AlertState{}
	for _, s := range states {
		byName[s.Rule] = s
	}

	for _, want := range []struct {
		rule   string
		firing bool
	}{
		{"any-trap", true},   // 42 total across label sets
		{"btra-only", true},  // exact-key match
		{"trap-rate", true},  // 42/2s = 21 > 10
		{"low-guards", true}, // 2 < 4
		{"slow-p99", true},   // 5% outliers at 5s put p99 in a slow bucket
		{"fast-p50", false},  // p50 is in the 5ms bucket
		{"mean-ok", true},    // mean ≈ 0.25
	} {
		s, ok := byName[want.rule]
		if !ok {
			t.Fatalf("rule %s missing from results", want.rule)
		}
		if s.Missing {
			t.Errorf("%s unexpectedly missing (value %v)", want.rule, s.Value)
		}
		if s.Firing != want.firing {
			t.Errorf("%s firing = %v (value %v), want %v", want.rule, s.Firing, s.Value, want.firing)
		}
	}

	// Metrics with no data are Missing, never firing — including quantiles
	// over empty histograms (NaN guard).
	for _, rule := range []string{"no-data", "empty-hist"} {
		s := byName[rule]
		if !s.Missing || s.Firing {
			t.Errorf("%s = %+v, want missing and not firing", rule, s)
		}
	}

	if got := FiringCount(states); got != 6 {
		t.Errorf("FiringCount = %d, want 6", got)
	}

	var sb strings.Builder
	WriteAlertTable(&sb, states)
	out := sb.String()
	for _, want := range []string{"FIRING", "missing", "any-trap", "rate(rt.traps) > 10"} {
		if !strings.Contains(out, want) {
			t.Errorf("alert table missing %q:\n%s", want, out)
		}
	}
}

func TestEvalAlertsElapsedClamp(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x").Add(5)
	rules := mustParseRules(t, "r: rate(x) > 0")
	states := EvalAlerts(rules, reg.Snapshot(), 0)
	if len(states) != 1 || !states[0].Firing {
		t.Fatalf("zero-elapsed eval = %+v, want firing (clamped window)", states)
	}
	if s := EvalAlerts(rules, nil, time.Second); !s[0].Missing {
		t.Fatalf("nil snapshot eval = %+v, want missing", s[0])
	}
}

// The committed example rules file must stay parseable — it is the first
// thing users copy.
func TestExampleRulesFileParses(t *testing.T) {
	rules, err := LoadAlertRules("../../alerts.example.rules")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) < 4 {
		t.Fatalf("example file has only %d rules", len(rules))
	}
	// Against an empty snapshot every rule is missing, none firing.
	states := EvalAlerts(rules, &Snapshot{}, time.Second)
	for _, s := range states {
		if s.Firing || !s.Missing {
			t.Errorf("rule %s on empty snapshot: %+v", s.Rule, s)
		}
	}
}
