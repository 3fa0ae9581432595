package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

func opsGet(t *testing.T, client *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestOpsServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("exec.cache.hits").Add(7)
	reg.Counter("rt.traps", "kind", "btra").Add(3)
	reg.Gauge("exec.pool.workers").Set(8)
	reg.Histogram("cell.ms", []float64{1, 10}, "phase", "build").Observe(4)
	reg.Histogram("exec.cell.seconds", LatencyBounds).Observe(1.5)

	progress := func() any {
		return map[string]any{"done": 3, "total": 10}
	}
	s, err := ServeOpsSources("127.0.0.1:0", OpsSources{Registry: reg, Progress: progress})
	if err != nil {
		t.Fatalf("ServeOpsSources: %v", err)
	}
	defer s.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()

	if code, body := opsGet(t, client, s.URL()+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body := opsGet(t, client, s.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE exec_cache_hits counter",
		"exec_cache_hits 7",
		`rt_traps{kind="btra"} 3`,
		"exec_pool_workers 8",
		`cell_ms_bucket{phase="build",le="10"} 1`,
		`cell_ms_bucket{phase="build",le="+Inf"} 1`,
		`cell_ms_sum{phase="build"} 4`,
		"exec_cell_seconds_sum 1.5",
		"exec_cell_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Structural validity of the exposition: every non-comment line is
	// "name{labels} value" with a parsable float value.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("metrics line without value: %q", line)
		}
		var f float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &f); err != nil {
			t.Errorf("metrics line value unparsable: %q", line)
		}
	}

	code, body = opsGet(t, client, s.URL()+"/progress")
	if code != 200 {
		t.Fatalf("/progress = %d", code)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if got["done"] != float64(3) || got["total"] != float64(10) {
		t.Errorf("/progress = %v", got)
	}

	if code, body := opsGet(t, client, s.URL()+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

func TestOpsServerNilBackends(t *testing.T) {
	s, err := ServeOpsSources("127.0.0.1:0", OpsSources{})
	if err != nil {
		t.Fatalf("ServeOpsSources: %v", err)
	}
	defer s.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	if code, _ := opsGet(t, client, s.URL()+"/metrics"); code != 200 {
		t.Errorf("/metrics with nil registry = %d", code)
	}
	if code, body := opsGet(t, client, s.URL()+"/progress"); code != 200 || !strings.Contains(body, "{}") {
		t.Errorf("/progress with nil source = %d %q", code, body)
	}
}

func TestOpsServerBadAddressFailsEagerly(t *testing.T) {
	if _, err := ServeOpsSources("127.0.0.1:99999", OpsSources{}); err == nil {
		t.Fatal("expected eager listen error for bad address")
	}
}

// TestOpsServerShutdownLeaksNoGoroutines is the lingering-goroutine gate:
// after Close returns — even with requests served in between — the process
// goroutine count must return to its baseline. Close is graceful (drains
// in-flight requests) and waits for the serve goroutine.
func TestOpsServerShutdownLeaksNoGoroutines(t *testing.T) {
	// Warm up lazy runtime/net pools so they do not count against the
	// baseline.
	s0, err := ServeOpsSources("127.0.0.1:0", OpsSources{})
	if err != nil {
		t.Fatalf("ServeOpsSources warmup: %v", err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	opsGet(t, client, s0.URL()+"/healthz")
	client.CloseIdleConnections()
	if err := s0.Close(); err != nil {
		t.Fatalf("warmup close: %v", err)
	}

	baseline := runtime.NumGoroutine()
	reg := NewRegistry()
	s, err := ServeOpsSources("127.0.0.1:0", OpsSources{Registry: reg, Progress: func() any { return map[string]int{"done": 1} }})
	if err != nil {
		t.Fatalf("ServeOpsSources: %v", err)
	}
	for i := 0; i < 3; i++ {
		opsGet(t, client, s.URL()+"/metrics")
		opsGet(t, client, s.URL()+"/progress")
	}
	client.CloseIdleConnections()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Goroutine teardown is asynchronous at the margins (connection
	// goroutines unwind after Shutdown returns); poll briefly before
	// declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, after close %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The observatory endpoints: /incidents and /alerts serve whatever their
// source closures return, as JSON; nil sources degrade to "{}" like
// /progress; a source yielding unmarshalable values (NaN) reports a 500 with
// an error body instead of a truncated response.
func TestOpsServerSourcesEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt.traps", "kind", "btra").Add(2)
	s, err := ServeOpsSources("127.0.0.1:0", OpsSources{
		Registry:  reg,
		Incidents: func() any { return map[string]any{"total": 2, "campaigns": []string{"t3"}} },
		Alerts: func() any {
			rules, perr := ParseAlertRules(strings.NewReader("traps: count(rt.traps) >= 1\n"))
			if perr != nil {
				t.Error(perr)
			}
			return EvalAlerts(rules, reg.Snapshot(), time.Second)
		},
	})
	if err != nil {
		t.Fatalf("ServeOpsSources: %v", err)
	}
	defer s.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()

	code, body := opsGet(t, client, s.URL()+"/incidents")
	if code != 200 {
		t.Fatalf("/incidents = %d", code)
	}
	var inc map[string]any
	if err := json.Unmarshal([]byte(body), &inc); err != nil {
		t.Fatalf("/incidents not JSON: %v\n%s", err, body)
	}
	if inc["total"] != float64(2) {
		t.Errorf("/incidents = %v", inc)
	}

	code, body = opsGet(t, client, s.URL()+"/alerts")
	if code != 200 {
		t.Fatalf("/alerts = %d", code)
	}
	var states []AlertState
	if err := json.Unmarshal([]byte(body), &states); err != nil {
		t.Fatalf("/alerts not JSON: %v\n%s", err, body)
	}
	if len(states) != 1 || !states[0].Firing {
		t.Errorf("/alerts = %+v", states)
	}

	// /progress was not wired: it must still answer, with the empty object.
	if code, body := opsGet(t, client, s.URL()+"/progress"); code != 200 || !strings.Contains(body, "{}") {
		t.Errorf("/progress with nil source = %d %q", code, body)
	}
}

// /healthz reports degraded state (503 with the reason) whenever the wired
// Health source returns a non-empty string, and recovers to 200 "ok" when
// the condition clears.
func TestOpsServerHealthzDegraded(t *testing.T) {
	reason := "2 variant(s) quarantined, heal in flight"
	s, err := ServeOpsSources("127.0.0.1:0", OpsSources{
		Health: func() string { return reason },
	})
	if err != nil {
		t.Fatalf("ServeOpsSources: %v", err)
	}
	defer s.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()

	code, body := opsGet(t, client, s.URL()+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded: 2 variant(s) quarantined") {
		t.Errorf("/healthz while degraded = %d %q", code, body)
	}
	reason = ""
	if code, body := opsGet(t, client, s.URL()+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz after recovery = %d %q", code, body)
	}
}

func TestOpsServerSourceMarshalError(t *testing.T) {
	s, err := ServeOpsSources("127.0.0.1:0", OpsSources{
		Incidents: func() any { return map[string]float64{"bad": math.NaN()} },
	})
	if err != nil {
		t.Fatalf("ServeOpsSources: %v", err)
	}
	defer s.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	code, body := opsGet(t, client, s.URL()+"/incidents")
	if code != http.StatusInternalServerError || !strings.Contains(body, "error") {
		t.Errorf("/incidents with NaN source = %d %q", code, body)
	}
}
