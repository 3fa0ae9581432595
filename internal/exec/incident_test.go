package exec_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/incident"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
)

// crashModule builds a module whose entry dereferences far-unmapped memory —
// the plain-crash signal the incident log records as a "fault".
func crashModule(t *testing.T) *tir.Module {
	t.Helper()
	mb := tir.NewModule("crasher")
	fb := mb.NewFunc("main", 0)
	wild := fb.Const(0xdead0000)
	fb.Load(wild, 0)
	fb.RetVoid()
	mb.SetEntry("main")
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The acceptance property of the observatory: the incident timeline (records,
// campaign summaries, and their JSON serialization) is byte-identical whether
// the cells ran serially or across eight workers.
func TestIncidentTimelineDeterministicAcrossWidths(t *testing.T) {
	m := crashModule(t)
	run := func(jobs int) []byte {
		obs := &telemetry.Observer{Registry: telemetry.NewRegistry(), FlightCap: 32}
		eng := exec.New(jobs, obs)
		eng.Incidents = incident.NewLog()
		cells := make([]exec.Cell, 8)
		for i := range cells {
			cells[i] = exec.Cell{Module: m, Cfg: defense.R2CFull(), Seed: uint64(100 + i), Prof: vm.EPYCRome()}
		}
		// Every cell faults; the batch error is the expected outcome, the
		// incident log is what we are comparing.
		if _, err := eng.RunCells(context.Background(), cells); err == nil {
			t.Fatal("crash cells completed without error")
		}
		if eng.Incidents.Len() == 0 {
			t.Fatal("faulting cells produced no incident records")
		}
		var buf bytes.Buffer
		if err := eng.Incidents.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	wide := run(8)
	if !bytes.Equal(serial, wide) {
		t.Fatalf("incident timeline differs between -jobs 1 and -jobs 8:\n%s\nvs\n%s", serial, wide)
	}
	var tl incident.Timeline
	if err := json.Unmarshal(serial, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.Total != 8 || len(tl.Campaigns) != 1 || tl.Campaigns[0].Campaign != "exec/crasher" {
		t.Fatalf("timeline = total %d, campaigns %+v", tl.Total, tl.Campaigns)
	}
	for _, r := range tl.Incidents {
		if r.Kind != "fault" || r.Addr != 0xdead0000 || r.ID == "" {
			t.Fatalf("unexpected record %+v", r)
		}
		if len(r.Flight) == 0 {
			t.Fatalf("record %s carries no flight snapshot despite FlightCap", r.ID)
		}
	}
}

// A fault-injected run must trip a threshold alert rule over the engine's
// failure counter and report firing; the same rule over a clean run stays
// quiet — the CI contract behind -alert-rules' nonzero exit.
func TestAlertRuleFiresOnFaultedRun(t *testing.T) {
	rules, err := telemetry.ParseAlertRules(strings.NewReader(
		"cell-failures: count(exec.cell.failures) >= 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(inject bool) []telemetry.AlertState {
		reg := telemetry.NewRegistry()
		eng := exec.New(2, &telemetry.Observer{Registry: reg})
		if inject {
			eng.Faults = (&exec.FaultPlan{}).SetAll(0, exec.FaultExecFail)
		}
		_, err := eng.RunCells(context.Background(), cellsN(testModule(t), 3))
		if inject && err == nil {
			t.Fatal("fault-injected run reported success")
		}
		if !inject && err != nil {
			t.Fatal(err)
		}
		return telemetry.EvalAlertsSeries(rules, reg.Snapshot(), nil, time.Second)
	}
	if n := telemetry.FiringCount(run(true)); n != 1 {
		t.Errorf("faulted run: %d rules firing, want 1", n)
	}
	states := run(false)
	if n := telemetry.FiringCount(states); n != 0 {
		t.Errorf("clean run: %d rules firing, want 0: %+v", n, states)
	}
}

// The engine's time-series rings live on the submission-ordered merge loop,
// so their contents — like the incident timeline — are byte-identical at any
// worker-pool width.
func TestEngineSeriesDeterministicAcrossWidths(t *testing.T) {
	m := testModule(t)
	run := func(jobs int) []byte {
		eng := exec.New(jobs, nil)
		eng.Series = telemetry.NewSeriesSet(0, nil)
		if _, err := eng.RunCells(context.Background(), cellsN(m, 48)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.Series.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	wide := run(8)
	if !bytes.Equal(serial, wide) {
		t.Fatalf("engine time series differ between -jobs 1 and -jobs 8:\n%s\nvs\n%s", serial, wide)
	}
	var snap telemetry.SeriesSnapshot
	if err := json.Unmarshal(serial, &snap); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, sd := range snap.Series {
		byName[sd.Name] = len(sd.Points)
	}
	// 48 cells at the stride of 16 = 3 ticks per series.
	for _, name := range []string{"exec.cells.done", "exec.run.cycles.p50", "exec.run.cycles.p99", "exec.run.cycles.mean"} {
		if byName[name] != 3 {
			t.Errorf("series %s has %d points, want 3 (all: %v)", name, byName[name], byName)
		}
	}
}

// Satellite (d): the ops endpoints must be safe to scrape while the engine is
// mutating the registry, the progress tracker and the incident log from its
// worker pool. Run under -race this is a data-race detector for the whole
// read path.
func TestOpsServerConcurrentScrapes(t *testing.T) {
	reg := telemetry.NewRegistry()
	obs := &telemetry.Observer{Registry: reg, FlightCap: 16}
	eng := exec.New(4, obs)
	eng.Incidents = incident.NewLog()
	eng.Series = telemetry.NewSeriesSet(0, obs)
	srv, err := telemetry.ServeOpsSources("127.0.0.1:0", telemetry.OpsSources{
		Registry:  reg,
		Progress:  func() any { return eng.Progress() },
		Incidents: func() any { return eng.Incidents.Timeline() },
		Series:    eng.Series,
		Health:    func() string { return "" },
		Alerts: func() any {
			return telemetry.EvalAlertsSeries(nil, reg.Snapshot(), nil, time.Second)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/progress", "/incidents", "/alerts", "/timeseries", "/timeseries?series=exec.run&last=4", "/dashboard", "/healthz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(srv.URL() + path)
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
					return
				}
			}
		}(path)
	}

	// Crash cells mutate the registry (trap/fault counters), the flight
	// recorders and the incident log while the scrapers read; the 16 cells
	// that complete fill one time-series sample.
	m := crashModule(t)
	cells := make([]exec.Cell, 16)
	for i := range cells {
		cells[i] = exec.Cell{Module: m, Cfg: defense.R2CFull(), Seed: uint64(300 + i), Prof: vm.EPYCRome()}
	}
	cells = append(cells, cellsN(testModule(t), 16)...)
	if _, err := eng.RunCells(context.Background(), cells); err == nil {
		t.Error("crash cells completed without error")
	}
	close(done)
	wg.Wait()
	if snap := eng.Series.Snapshot([]string{"exec.cells.done"}, 0); len(snap.Series) != 1 || len(snap.Series[0].Points) != 1 {
		t.Errorf("time series sampled %+v, want one exec.cells.done point", snap.Series)
	}

	// One final scrape after the dust settles must see the incidents.
	resp, err := http.Get(srv.URL() + "/incidents")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tl incident.Timeline
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	if tl.Total != 16 {
		t.Errorf("/incidents total = %d, want 16", tl.Total)
	}
}
