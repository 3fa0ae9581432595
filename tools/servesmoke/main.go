// Command servesmoke drives the serving-fleet smoke test end to end: it is
// what `make serve-smoke` runs. Three legs, each a bounded MVEE-supervised
// r2cserve run (or pair of runs):
//
//   - live: the detect→quarantine→rebuild→resume gate (-require-recover)
//     with the ops endpoint scraped mid-run — /progress until the fleet has
//     served requests, then /metrics, /healthz and /alerts;
//   - determinism: the same schedule at -jobs 1 and -jobs 8 writes
//     byte-identical -incidents-out files and the same -json "sim" object;
//   - exit code: a point-in-time alert rule is quiet (exit 0) on a benign run
//     and FIRING (exit 1) on the attacked run.
//
// Usage: servesmoke <path-to-r2cserve>
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// liveRules must stay quiet on the live run: a healed fleet neither fails a
// heal nor lets a corruption through unseen, and its build cache ends
// holding no more images than its four slots serve (one more per heal
// means retired images stay cached).
const liveRules = `# written by tools/servesmoke
heal-failures: count(fleet.heal.failures) >= 1
silent:        count(fleet.silent_corruptions) >= 1
cache-bounded: value(exec.cache.entries) > 4
`

// quarantineRules is the exit-code leg's rule: any quarantine fires it.
const quarantineRules = `# written by tools/servesmoke
quarantined: count(fleet.quarantines) >= 1
`

// fleetArgs is the shared schedule: MVEE-supervised fleet under scripted
// corruption pressure.
func fleetArgs(requests string) []string {
	return []string{
		"-variants", "4", "-mvee", "2", "-requests", requests,
		"-attack", "overwrite", "-attack-start", "50", "-attack-every", "25",
	}
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: servesmoke <path-to-r2cserve>")
		os.Exit(2)
	}
	serve := os.Args[1]

	tmp, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	write := func(name, body string) string {
		p := filepath.Join(tmp, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			fatal(err)
		}
		return p
	}

	liveRun(serve, write("live.rules", liveRules))
	determinismRun(serve, tmp)
	exitCodeRun(serve, write("quarantine.rules", quarantineRules))
	fmt.Println("servesmoke: all gates passed")
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "servesmoke:", v)
	os.Exit(1)
}

// liveView mirrors the fleet's /progress payload (the tool stays decoupled
// from the internal packages on purpose: it validates the wire format a
// real consumer would parse).
type liveView struct {
	Requests int `json:"requests"`
	Served   int `json:"served"`
	Slots    []struct {
		State string `json:"state"`
	} `json:"slots"`
}

// alertState mirrors one entry of /alerts.
type alertState struct {
	Rule   string `json:"rule"`
	Firing bool   `json:"firing"`
}

// liveRun is the live leg: a clean-exiting attacked run with -listen,
// scraped mid-flight, that must pass -require-recover and exit 0 with its
// rules quiet.
func liveRun(serve, rulesPath string) {
	args := append(fleetArgs("2000"),
		"-require-recover", "-listen", "127.0.0.1:0",
		"-alert-rules", rulesPath,
		"-metrics-out", "SERVE_metrics.json",
		"nginx")
	cmd := exec.Command(serve, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		fatal(err)
	}
	if err := cmd.Start(); err != nil {
		fatal(err)
	}
	fail := func(v any) {
		cmd.Process.Kill()
		cmd.Wait()
		fatal(v)
	}

	// The ops URL arrives on stderr as "[ops endpoint listening on URL]".
	urlCh := make(chan string, 1)
	var stderr bytes.Buffer
	stderrDone := make(chan struct{})
	go func() {
		defer close(stderrDone)
		sc := bufio.NewScanner(io.TeeReader(stderrPipe, &stderr))
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "[ops endpoint listening on "); ok {
				urlCh <- strings.TrimSuffix(rest, "]")
			}
		}
	}()

	var base string
	select {
	case base = <-urlCh:
	case <-time.After(30 * time.Second):
		fail("ops endpoint never announced itself on stderr")
	}

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (int, []byte, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}

	// Poll /progress until the fleet has served requests. Every response
	// along the way must be a well-formed live view of the whole fleet.
	deadline := time.Now().Add(30 * time.Second)
	var lv liveView
	for lv.Served == 0 {
		if time.Now().After(deadline) {
			fail("/progress never showed a served request")
		}
		code, body, err := get("/progress")
		if err != nil {
			fail(fmt.Errorf("the run closed its ops endpoint before /progress showed a served request: %w", err))
		}
		if code != 200 {
			fail(fmt.Sprintf("/progress = %d: %s", code, body))
		}
		if err := json.Unmarshal(body, &lv); err != nil {
			fail(fmt.Errorf("/progress is not JSON: %w\n%s", err, body))
		}
		if lv.Requests != 2000 {
			fail(fmt.Sprintf("/progress reports %d requests, want 2000:\n%s", lv.Requests, body))
		}
	}
	if len(lv.Slots) != 4 {
		fail(fmt.Sprintf("/progress lists %d slots, want 4", len(lv.Slots)))
	}
	fmt.Printf("servesmoke: mid-run /progress: %d/%d requests served\n", lv.Served, lv.Requests)

	// The scrapes below must answer while the run is live; a run that has
	// already finished closes the listener, which is not a failure.
	if code, body, err := get("/metrics"); err == nil {
		if code != 200 || !strings.Contains(string(body), "fleet_requests") {
			fail(fmt.Sprintf("/metrics = %d without fleet_requests:\n%s", code, body))
		}
		fmt.Printf("servesmoke: mid-run /metrics: %d bytes\n", len(body))
	}
	// /healthz answers 200 "ok" or 503 "degraded: ..." depending on whether a
	// heal is in flight at scrape time; anything else is a failure.
	if code, body, err := get("/healthz"); err == nil {
		ok := code == 200 && strings.Contains(string(body), "ok")
		degraded := code == 503 && strings.Contains(string(body), "degraded:")
		if !ok && !degraded {
			fail(fmt.Sprintf("/healthz = %d %q", code, body))
		}
		fmt.Printf("servesmoke: mid-run /healthz: %d %s", code, body)
	}
	if code, body, err := get("/alerts"); err == nil {
		var states []alertState
		if code != 200 {
			fail(fmt.Sprintf("/alerts = %d: %s", code, body))
		}
		if err := json.Unmarshal(body, &states); err != nil {
			fail(fmt.Errorf("/alerts is not JSON: %w\n%s", err, body))
		}
		if len(states) != 3 || states[0].Rule != "heal-failures" || states[1].Rule != "silent" || states[2].Rule != "cache-bounded" {
			fail(fmt.Sprintf("/alerts does not list the rules file:\n%s", body))
		}
		fmt.Printf("servesmoke: mid-run /alerts: %d rules evaluated\n", len(states))
	}

	<-stderrDone
	if err := cmd.Wait(); err != nil {
		fatal(fmt.Sprintf("live run failed (%v)\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String()))
	}
	if out := stdout.String(); strings.Contains(out, "FIRING") {
		fatal("live run fired an alert:\n" + out)
	}
	fmt.Println("servesmoke: live run recovered and exited 0, rules quiet")
}

// determinismRun pins r2cserve's artifact contract: the same schedule at
// -jobs 1 and -jobs 8 writes byte-identical -incidents-out files and the
// same simulated-domain ("sim") half of the -json report. The "wall" half
// holds measured seconds and differs between any two runs.
func determinismRun(serve, tmp string) {
	type out struct{ sim, incidents []byte }
	runs := map[string]out{}
	for _, jobs := range []string{"1", "8"} {
		inc := filepath.Join(tmp, "incidents-jobs"+jobs+".json")
		args := append(fleetArgs("400"), "-jobs", jobs, "-flight", "16", "-json", "-incidents-out", inc, "nginx")
		cmd := exec.Command(serve, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			fatal(fmt.Sprintf("-jobs %s run failed (%v):\n%s", jobs, err, stderr.String()))
		}
		var rep struct {
			Sim  json.RawMessage `json:"sim"`
			Wall json.RawMessage `json:"wall"`
		}
		if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil || rep.Sim == nil || rep.Wall == nil {
			fatal(fmt.Sprintf("-jobs %s: -json stdout is not one report document (err %v):\n%s", jobs, err, stdout.String()))
		}
		b, err := os.ReadFile(inc)
		if err != nil {
			fatal(err)
		}
		runs[jobs] = out{rep.Sim, b}
	}
	a, b := runs["1"], runs["8"]
	if !bytes.Equal(a.sim, b.sim) {
		fatal(fmt.Sprintf("-json sim report differs between -jobs 1 and -jobs 8:\n%s\nvs\n%s", a.sim, b.sim))
	}
	if !bytes.Equal(a.incidents, b.incidents) {
		fatal("-incidents-out differs between -jobs 1 and -jobs 8")
	}
	if !bytes.Contains(a.incidents, []byte(`"kind": "divergence"`)) {
		fatal("the attacked schedule recorded no divergence incident")
	}
	fmt.Printf("servesmoke: -json sim report and -incidents-out (%d bytes) byte-identical at -jobs 1 and -jobs 8\n", len(a.incidents))
}

// exitCodeRun proves the alert exit-code contract both ways with one
// point-in-time rule: quiet and exit 0 on benign traffic, FIRING and exit 1
// once the attack gets variants quarantined.
func exitCodeRun(serve, rulesPath string) {
	benign := exec.Command(serve, "-variants", "4", "-mvee", "2", "-requests", "400", "-alert-rules", rulesPath, "nginx")
	out, err := benign.CombinedOutput()
	if err != nil {
		fatal(fmt.Sprintf("benign run failed (%v):\n%s", err, out))
	}
	if strings.Contains(string(out), "FIRING") {
		fatal("benign run fired the quarantine rule:\n" + string(out))
	}
	fmt.Println("servesmoke: benign run exited 0, quarantine rule quiet")

	attacked := exec.Command(serve, append(fleetArgs("400"), "-alert-rules", rulesPath, "nginx")...)
	out, err = attacked.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		fatal(fmt.Sprintf("attacked run did not fail with an exit code (err %v):\n%s", err, out))
	}
	if code := ee.ExitCode(); code != 1 {
		fatal(fmt.Sprintf("attacked run exited %d, want 1:\n%s", code, out))
	}
	if !strings.Contains(string(out), "FIRING") {
		fatal(fmt.Sprintf("attacked run's alert table shows no FIRING rule:\n%s", out))
	}
	fmt.Println("servesmoke: attacked run fired the quarantine rule and exited 1")
}
