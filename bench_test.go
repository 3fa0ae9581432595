// Package r2c's top-level benchmarks regenerate every table and figure of
// the paper's evaluation as testing.B benchmarks (`go test -bench=. -benchmem`).
// Each benchmark reports the headline numbers via b.ReportMetric so the
// paper-vs-measured comparison appears directly in the bench output; full
// row-by-row tables come from cmd/r2cbench and cmd/r2cattack.
package main

import (
	"strings"
	"testing"

	"r2c/internal/attack"
	"r2c/internal/bench"
	"r2c/internal/defense"
	"r2c/internal/sim"
	"r2c/internal/stats"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// benchOpt keeps benchmark iterations small; the cmd harness runs full
// scale.
func benchOpt() bench.Options { return bench.Options{Scale: 8, Runs: 1} }

// BenchmarkTable1ComponentOverheads regenerates Table 1 (paper geomeans:
// Push 1.06, AVX 1.04, BTDP 1.02, Prolog 1.02, Layout 1.00).
func BenchmarkTable1ComponentOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Geomean, r.Name+"-geomean")
			b.ReportMetric(r.Max, r.Name+"-max")
		}
	}
}

// BenchmarkTable2CallFrequency regenerates Table 2 (median executed-call
// counts, scaled back to paper magnitude).
func BenchmarkTable2CallFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		// Report the extreme rows: nab (highest) and lbm (lowest).
		for _, r := range rows {
			if r.Benchmark == "nab" || r.Benchmark == "lbm" {
				b.ReportMetric(float64(r.Scaled), r.Benchmark+"-calls-scaled")
			}
		}
	}
}

// BenchmarkFigure6FullR2C regenerates Figure 6 (paper: 6.6–8.5% geomean
// across the four machines).
func BenchmarkFigure6FullR2C(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.Figure6(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			name := strings.ReplaceAll(s.Machine, " ", "-")
			b.ReportMetric(s.Geomean, name+"-geomean-pct")
		}
	}
}

// BenchmarkWebserverThroughput regenerates the Section 6.2.4 experiment
// (paper: −13%/−12% on i9, −3..4% on the AMD machines).
func BenchmarkWebserverThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Webserver(bench.Options{Scale: 4, Runs: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			name := strings.ReplaceAll(r.Server+"@"+r.Machine, " ", "-")
			b.ReportMetric(r.DeficitPct, name+"-deficit-pct")
		}
	}
}

// BenchmarkMemoryOverhead regenerates the Section 6.2.5 experiment (paper:
// SPEC 1–3% maxrss, webserver ≈100% with ≈55% from BTDP pages).
func BenchmarkMemoryOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Memory(bench.Options{Scale: 4, Runs: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SPECMaxrssMaxPct, "spec-maxrss-max-pct")
		b.ReportMetric(r.WebOverheadPct, "web-overhead-pct")
		b.ReportMetric(r.WebBTDPSharePct, "web-btdp-share-pct")
	}
}

// BenchmarkOIA regenerates the offset-invariant addressing measurement
// (paper: 0.79% geomean, 3.61% max).
func BenchmarkOIA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.OIA(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GeomeanPct, "geomean-pct")
		b.ReportMetric(r.MaxPct, "max-pct")
	}
}

// BenchmarkAVX512 regenerates the Section 7.1 comparison (AVX-512 ≈ AVX2
// with the same move count; twice the BTRAs for similar cost).
func BenchmarkAVX512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.AVX512(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AVX2GeomeanPct, "avx2-pct")
		b.ReportMetric(r.AVX512GeomeanPct, "avx512-pct")
		b.ReportMetric(r.AVX512x20GeomeanPct, "avx512x20-pct")
	}
}

// BenchmarkTable3SecurityMatrix regenerates Table 3's attack columns
// (success and detection rates per defense).
func BenchmarkTable3SecurityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3(benchOpt(), 4, false)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Defense == "r2c-full" {
				b.ReportMetric(r.Tallies["aocr"].SuccessRate(), "r2c-aocr-success-rate")
				b.ReportMetric(r.DetectionRate, "r2c-detection-rate")
			}
			if r.Defense == "readactor" {
				b.ReportMetric(r.Tallies["aocr"].SuccessRate(), "readactor-aocr-success-rate")
			}
		}
	}
}

// BenchmarkGuessProbability regenerates the Section 7.2.1 numbers
// empirically (paper: (1/11)^4 ≈ 0.00007 for R=10, n=4).
func BenchmarkGuessProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := bench.Prob(bench.Options{}, 20)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.R == 10 {
				b.ReportMetric(p.PerFrame, "per-frame-success")
				b.ReportMetric(p.Analytic, "analytic-1-over-11")
			}
		}
	}
}

// BenchmarkScalability regenerates the Section 6.3 check: compile and run a
// browser-scale module under full R2C.
func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Scale(bench.Options{}, 2000)
		if err != nil {
			b.Fatal(err)
		}
		if !r.OutputOK {
			b.Fatal("browser-scale output diverged")
		}
		b.ReportMetric(float64(r.TextKB), "protected-text-KiB")
	}
}

// BenchmarkVMThroughput measures raw simulator speed (instructions/sec) on
// an uninstrumented workload — the substrate's own performance.
func BenchmarkVMThroughput(b *testing.B) {
	m := workload.MCF(4)
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		res, _, err := sim.Run(m, defense.Off(), uint64(i+1), vm.EPYCRome())
		if err != nil {
			b.Fatal(err)
		}
		instr += res.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkCompile measures toolchain speed: full R2C compile+link of the
// largest SPEC-like module.
func BenchmarkCompile(b *testing.B) {
	m := workload.Xalancbmk(8)
	cfg := defense.R2CFull()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Build(m, cfg, uint64(i+1), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAOCRAttack measures one full AOCR attack chain against R2C
// (build, pause, profile, probe) — the security harness's unit of work.
func BenchmarkAOCRAttack(b *testing.B) {
	tally := attack.Tally{}
	for i := 0; i < b.N; i++ {
		s, err := attack.NewScenario(nil, defense.R2CFull(), uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		tally.Add(s.AOCR())
	}
	if tally.Success > 0 {
		b.Fatalf("AOCR succeeded against R2C: %v", &tally)
	}
	b.ReportMetric(tally.DetectionRate(), "detection-rate")
	_ = stats.Pct
}
