package bench

import (
	"fmt"
	"time"

	"r2c/internal/audit"
	"r2c/internal/defense"
	"r2c/internal/telemetry"
	"r2c/internal/workload"
)

// diversityVariants is the variant count per configuration in the Diversity
// experiment — enough for 28 pairwise comparisons per config while keeping
// the sweep light enough for CI.
const diversityVariants = 8

// Diversity runs the variant diversity audit across the paper's
// configurations — the unprotected baseline, each R2C component in
// isolation, and full R2C — over the nginx workload, and prints one
// comparison row per config: placement entropy, register-allocation
// divergence, and the mean pairwise survivor rates an AOCR adversary could
// exploit. It is the at-a-glance answer to "which knob buys how much
// diversity"; `r2caudit` is the deep single-config view.
//
// Builds fan through the shared engine, so a diversity sweep after a
// performance sweep reuses every cached image. Reports come back in config
// order and are byte-identical at any -jobs width.
func Diversity(opt Options) ([]*audit.Report, error) {
	opt = opt.withEngine()
	start := time.Now()
	defer func() {
		opt.Eng.Obs.Histogram("bench.diversity.seconds", telemetry.LatencyBounds).Observe(time.Since(start).Seconds())
	}()

	b, ok := workload.ByName("nginx")
	if !ok {
		return nil, fmt.Errorf("bench: nginx workload missing")
	}
	m := b.Build(opt.scale())

	configs := []defense.Config{defense.Off()}
	configs = append(configs, defense.Components()...)
	configs = append(configs, defense.R2CFull())

	opt.printf("Variant diversity (nginx, %d variants/config; entropy in bits, ceiling %.2f):\n",
		diversityVariants, audit.NewEntropyStat(0, diversityVariants).MaxBits)
	opt.printf("%-18s %9s %9s %9s | %9s %9s %9s %9s\n",
		"config", "func-ord", "glob-ord", "regalloc", "f-off", "g-off", "gadget", "data")

	reports := make([]*audit.Report, 0, len(configs))
	for _, cfg := range configs {
		rep, err := audit.Run(audit.Options{
			Module:   m,
			Cfg:      cfg,
			Variants: diversityVariants,
			BaseSeed: 71, // fixed schedule, like the perf sweeps' seed bases
			Eng:      opt.Eng,
			Ctx:      opt.ctx(),
		})
		if err != nil {
			return reports, fmt.Errorf("bench: diversity audit of %s: %w", cfg.Name, err)
		}
		reports = append(reports, rep)
		s := rep.Survivor
		opt.printf("%-18s %9.3f %9.3f %9.3f | %9.4f %9.4f %9.4f %9.4f\n",
			cfg.Name,
			rep.FuncOrder.Permutation.Bits,
			rep.GlobalOrder.Permutation.Bits,
			rep.RegAlloc.MeanEntropy.Bits,
			s.MeanFuncOffset, s.MeanGlobalOffset, s.MeanGadget, s.MeanDataWord)
	}
	return reports, nil
}
