// Command r2cserve runs the self-healing serving fleet: N diversified
// variants of a request handler behind an open-loop load generator, with
// detection-triggered quarantine and live re-diversification — the moving
// target defense R2C's "instant re-randomization" principle promises,
// measured end to end. Attack pressure is scripted (-attack) and the run
// reports steady-state throughput, tail latency (p50/p90/p99) and the
// wall-clock time-to-replace a compromised variant.
//
// All simulated-domain results (throughput, latency quantiles, detections,
// incident records) are deterministic: identical flags produce
// byte-identical -json and -incidents-out output at any -jobs width.
// `r2cserve -h` lists the flags.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"r2c/internal/attack"
	"r2c/internal/defense"
	"r2c/internal/fleet"
	"r2c/internal/harness"
	"r2c/internal/incident"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	h := harness.New("r2cserve", "<nginx|apache|victim|FILE.tir>", stdout, stderr, harness.Ops|harness.Artifacts)
	fs := h.Flags
	cfgName := fs.String("config", "r2c", "defense configuration (baseline, r2c, push, avx, btdp, prolog, layout, oia, ...)")
	variants := fs.Int("variants", 4, "fleet size: number of live diversified variants (≥ 2)")
	mveeN := fs.Int("mvee", 0, "supervise every request across N variants with divergence detection (0 = single-variant serving)")
	requests := fs.Int("requests", 2000, "number of requests the load generator emits")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in simulated req/s (0 = auto-calibrate to ~70% of capacity)")
	seed := fs.Uint64("seed", 1, "base seed; variant i starts with seed+i, replacements draw fresh seeds above")
	heal := fs.String("heal", fleet.HealRebuild, "quarantine response: rebuild (fresh-seed re-diversification) or reroll (BTRA-only re-randomization)")
	rebuildLat := fs.Float64("rebuild-latency", 0, "simulated seconds a quarantined variant stays out of rotation (0 = ~20 service times)")
	atkMode := fs.String("attack", "", "attack pressure: overwrite (corrupt -attack-target) or hijack (victim control-flow hijack); empty = benign run")
	atkStart := fs.Int("attack-start", 100, "first attacked request index")
	atkEvery := fs.Int("attack-every", 50, "attack period: every Nth request from -attack-start is malicious")
	atkTarget := fs.String("attack-target", "page64", "data symbol the overwrite attack corrupts")
	atkValue := fs.Uint64("attack-value", 0xbadc0ffee, "value the overwrite attack writes")
	adaptive := fs.Bool("adaptive", false, "attacker re-leaks the victim's layout after each heal (repeated-disclosure adversary)")
	fuel := fs.Uint64("fuel", 0, "per-request instruction allowance (0 = 5,000,000); exhaustion quarantines as a hang, or under -mvee as a liveness divergence (budget rounded up to whole 100,000-instruction lockstep slices)")
	jobs := fs.Int("jobs", 0, "build parallelism (0 = GOMAXPROCS); simulated-domain output is identical at any width")
	asJSON := fs.Bool("json", false, "emit the machine-readable JSON report instead of the text report")
	requireRecover := fs.Bool("require-recover", false, "exit nonzero unless the run both quarantined and recovered at least one variant (smoke-test gate)")
	sampleEvery := fs.Float64("sample-every", 0, "time-series sampling period in simulated seconds (0 = auto ≈ 240 points per run, negative disables); samples feed /timeseries, /dashboard, windowed alerts and -timeseries-out")
	degradeSlot := fs.Int("degrade-slot", 0, "fault injection: variant slot whose service time degrades (with -degrade-growth)")
	degradeAfter := fs.Int("degrade-after", 0, "fault injection: first request index of the degradation")
	degradeGrowth := fs.Float64("degrade-growth", 0, "fault injection: per-request service-time growth factor > 1 on the degraded slot (0 = off); output stays correct, only timing drifts")

	return h.Main(args, func() error {
		cfg, ok := defense.ByName(*cfgName)
		if !ok {
			return fmt.Errorf("unknown config %q", *cfgName)
		}
		mod, err := resolveModule(fs.Arg(0))
		if err != nil {
			return err
		}
		if *atkMode == fleet.ModeHijack && fs.Arg(0) != "victim" {
			return fmt.Errorf("the hijack attack needs the victim workload (it targets the victim's admin_ptr/secret_key assets)")
		}
		// The fleet always records its incidents, so the log exists
		// whatever the flags.
		h.Incidents = incident.NewLog()
		if err := h.Open(*jobs, false); err != nil {
			return err
		}
		fl, err := fleet.New(fleet.Options{
			Module:         mod,
			Cfg:            cfg,
			Prof:           vm.EPYCRome(),
			Variants:       *variants,
			BaseSeed:       *seed,
			Requests:       *requests,
			RateRPS:        *rate,
			MVEE:           *mveeN,
			RequestFuel:    *fuel,
			Heal:           *heal,
			RebuildLatency: *rebuildLat,
			Attack: fleet.Schedule{
				Start:    *atkStart,
				Every:    *atkEvery,
				Mode:     *atkMode,
				Target:   *atkTarget,
				Value:    *atkValue,
				Adaptive: *adaptive,
			},
			Eng:         h.Eng,
			Obs:         h.Obs,
			SampleEvery: *sampleEvery,
			Degrade: fleet.Degrade{
				Slot:   *degradeSlot,
				After:  *degradeAfter,
				Growth: *degradeGrowth,
			},
		})
		if err != nil {
			return err
		}
		h.Series = fl.Series()
		if err := h.Serve(telemetry.OpsSources{Progress: func() any { return fl.Live() }, Health: fl.Health}); err != nil {
			return err
		}
		rep, err := fl.Serve(h.Ctx)
		if err != nil {
			return err
		}
		if *asJSON {
			// stdout carries exactly one JSON document; the harness's
			// own tables go to stderr.
			h.Stdout = stderr
			err = rep.WriteJSON(stdout)
		} else {
			err = rep.WriteText(stdout)
		}
		if err != nil {
			return err
		}
		if *requireRecover && (rep.Sim.Quarantines == 0 || rep.Sim.Recoveries == 0) {
			h.Fail(fmt.Errorf("require-recover: %d quarantines, %d recoveries — the detect→quarantine→rebuild→resume loop did not close",
				rep.Sim.Quarantines, rep.Sim.Recoveries))
		}
		return nil
	})
}

// resolveModule maps the positional argument to a per-request module: the
// fleet's unit of work is one request, so the webserver names resolve to
// their single-request variants rather than the throughput benchmarks.
func resolveModule(name string) (*tir.Module, error) {
	switch name {
	case "nginx":
		return workload.NginxRequest(), nil
	case "apache":
		return workload.ApacheRequest(), nil
	case "victim":
		return attack.Victim(), nil
	}
	if strings.HasSuffix(name, ".tir") {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		return tir.Parse(string(src))
	}
	return nil, fmt.Errorf("unknown workload %q (nginx, apache, victim, or a .tir file)", name)
}
