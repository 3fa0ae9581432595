// Command r2caudit is the variant diversity auditor: it builds N
// re-diversified images of one workload under one defense configuration and
// reports how random the randomization actually is — placement-order
// entropy, the distributions of every randomized code-generation choice
// (BTRA pre/post offsets, NOP runs, global padding, BTDP placement,
// register allocation), and the pairwise survivor surface: addresses,
// gadget-like instruction windows and data words an address-oblivious
// attacker could carry unchanged from one variant to another.
//
// The report is deterministic: identical inputs produce byte-identical
// output at any -jobs width, so reports can be diffed across toolchain
// versions and checked into CI as goldens. `r2caudit -h` lists the flags.
package main

import (
	"fmt"
	"io"
	"os"

	"r2c/internal/audit"
	"r2c/internal/defense"
	"r2c/internal/harness"
	"r2c/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	h := harness.New("r2caudit", "<workload|victim|FILE.tir>", stdout, stderr, harness.Ops)
	cfgName := h.Flags.String("config", "r2c", "defense configuration (baseline, r2c, push, avx, btdp, prolog, layout, oia, ...)")
	variants := h.Flags.Int("variants", 16, "number of re-diversified builds to compare (≥ 2)")
	seed := h.Flags.Uint64("seed", 1, "base seed; variant i builds with seed+i")
	scale := h.Flags.Int("scale", 8, "workload scale divisor")
	jobs := h.Flags.Int("jobs", 0, "parallel builds (0 = GOMAXPROCS, 1 = serial); the report is identical at any width")
	asJSON := h.Flags.Bool("json", false, "emit the machine-readable JSON report instead of the text report")

	return h.Main(args, func() error {
		cfg, ok := defense.ByName(*cfgName)
		if !ok {
			return fmt.Errorf("unknown config %q", *cfgName)
		}
		mod, err := harness.Module(h.Flags.Arg(0), *scale)
		if err != nil {
			return err
		}
		if err := h.Open(*jobs, false); err != nil {
			return err
		}
		if err := h.Serve(telemetry.OpsSources{}); err != nil {
			return err
		}
		rep, err := audit.Run(audit.Options{
			Module:   mod,
			Cfg:      cfg,
			Variants: *variants,
			BaseSeed: *seed,
			Eng:      h.Eng,
			Ctx:      h.Ctx,
		})
		if err != nil {
			return err
		}
		if *asJSON {
			return rep.WriteJSON(stdout)
		}
		return rep.WriteText(stdout)
	})
}
