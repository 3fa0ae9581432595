// Command r2cbench is the performance harness: it regenerates the paper's
// performance artifacts — Table 1 (component overheads), Table 2 (call
// frequencies), Figure 6 (full R2C on four machines), the webserver
// throughput experiment (Section 6.2.4), the memory-overhead experiment
// (Section 6.2.5), the offset-invariant addressing measurement (Section
// 6.2.1), the AVX-512 variant (Section 7.1), and the scalability check
// (Section 6.3).
//
// -baseline records the run's modeled numbers as a committed baseline
// (BENCH_<label>.json); -compare re-runs a committed baseline's experiment
// and exits nonzero if any metric drifted from it.
// `r2cbench -h` lists the flags and experiments.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"r2c/internal/bench"
	"r2c/internal/exec"
	"r2c/internal/harness"
	"r2c/internal/telemetry"
)

// experiments maps every known experiment name to its driver, in the order
// `all` runs them.
var experiments = []struct {
	name string
	run  func(bench.Options) error
}{
	{"table1", func(o bench.Options) error { _, err := bench.Table1(o); return err }},
	{"table2", func(o bench.Options) error { _, err := bench.Table2(o); return err }},
	{"figure6", func(o bench.Options) error { _, err := bench.Figure6(o); return err }},
	{"webserver", func(o bench.Options) error { _, err := bench.Webserver(o); return err }},
	{"memory", func(o bench.Options) error { _, err := bench.Memory(o); return err }},
	{"oia", func(o bench.Options) error { _, err := bench.OIA(o); return err }},
	{"avx512", func(o bench.Options) error { _, err := bench.AVX512(o); return err }},
	{"scale", func(o bench.Options) error { _, err := bench.Scale(o, 2000); return err }},
	{"ablations", func(o bench.Options) error { _, err := bench.Ablations(o); return err }},
	{"diversity", func(o bench.Options) error { _, err := bench.Diversity(o); return err }},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	h := harness.New("r2cbench", "<experiment>", stdout, stderr, harness.Ops|harness.Artifacts|harness.Engine|harness.PerfGate)
	scale := h.Flags.Int("scale", 1, "workload scale divisor (1 = full calibrated size)")
	runs := h.Flags.Int("runs", 3, "differently-seeded builds per measurement (median)")
	jobs := h.Flags.Int("jobs", 0, "parallel simulation cells (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	profile := h.Flags.Bool("profile", false, "collect per-function simulated-cycle profiles and print the hot-function table")
	top := h.Flags.Int("top", 15, "rows in the -profile hot-function table")
	profileFormat := h.Flags.String("profile-format", "table", "-profile output: table (flat hot functions) or folded (flamegraph.pl/speedscope folded stacks)")
	h.Params = []string{"scale", "runs"}

	var opt bench.Options
	for _, e := range experiments {
		h.Experiments = append(h.Experiments, harness.Experiment{Name: e.name, Run: func() error {
			start := time.Now()
			err := e.run(opt)
			if _, partial := exec.AsBatchError(err); err == nil || partial && h.Ctx.Err() == nil {
				fmt.Fprintf(stdout, "[%s done in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
			}
			return err
		}})
	}
	return h.Main(args, func() error {
		if *profileFormat != "table" && *profileFormat != "folded" {
			return harness.Usage(fmt.Errorf("unknown -profile-format %q (want table or folded)", *profileFormat))
		}
		// One engine for the whole invocation: experiments that rebuild the
		// same (module, config, seed) — Figure 6's four machines, the
		// ablation sweeps' shared baselines — hit the build cache.
		if err := h.Open(*jobs, *profile); err != nil {
			return err
		}
		h.SampleCells()
		if err := h.Serve(telemetry.OpsSources{}); err != nil {
			return err
		}
		opt = bench.Options{Scale: *scale, Runs: *runs, Out: stdout, Eng: h.Eng, Ctx: h.Ctx}
		if err := h.RunExperiments(); err != nil {
			return err
		}
		switch {
		case *profile && *profileFormat == "folded":
			h.Obs.Reg().WriteFolded(stdout)
		case *profile:
			h.Obs.Reg().WriteHotFunctions(stdout, *top)
		}
		return nil
	})
}
