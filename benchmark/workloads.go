package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/fleet"
	"r2c/internal/image"
	"r2c/internal/stats"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// size fixes how much work one round of each workload does.
type size struct {
	specScale     int // divisor of the SPEC modules' iteration counts
	specModules   int // leading SPEC modules used, of twelve
	serveRequests int // requests per fleet run on serve
	healRequests  int // requests per fleet run on serve-mvee-heal
	variants      int // fresh seeds per module on rediversify
}

var (
	// fullSize is the benchmark. Each round takes 0.5 to 3 seconds at
	// -jobs 2, so a 25-second window holds several; 2000 heal-run requests
	// give ≈80 time-to-replace samples a round, and 16 live images per
	// rediversify batch keep its peak memory near 300 MB.
	fullSize = size{specScale: 8, specModules: 12, serveRequests: 2000, healRequests: 2000, variants: 16}
	// tinySize keeps the package tests fast; no recorded digest applies.
	tinySize = size{specScale: 256, specModules: 3, serveRequests: 40, healRequests: 150, variants: 3}
)

// params is everything a round depends on besides the workload.
type params struct {
	seed uint64
	jobs int
	size size
}

// recorded reports whether the seed-1 digests in expected.json apply.
func (p params) recorded() bool { return p.seed == 1 && p.size == fullSize }

// roundOut is what one execution of a workload's unit of work produced.
type roundOut struct {
	// key names the round's inputs: rounds with equal keys must produce
	// equal digests. It is the machine profile on figure6, "" elsewhere.
	key    string
	setup  time.Duration // module construction plus pre-warmed builds
	work   time.Duration // the measured part
	units  int           // cells, requests or builds attempted
	failed int           // failed units plus failed output checks
	digest string

	cycles []float64 // figure6: each cell's modeled cycles, for the replay
	heals  int       // fleet workloads: quarantines, each one heal build

	cacheHits, cacheMisses, cacheImages int
}

// fail counts one failed check and says which.
func (o *roundOut) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "r2cperf: check failed: "+format+"\n", args...)
}

// cache adds an engine's build-cache economy to the round's totals.
func (o *roundOut) cache(eng *exec.Engine) {
	h, m, _ := eng.Cache.Stats()
	o.cacheHits += int(h)
	o.cacheMisses += int(m)
	o.cacheImages += eng.Cache.Len()
}

// batchFailures returns how many units a RunCells/BuildImages error failed,
// or the error itself when it is not a per-unit batch failure.
func batchFailures(err error) (int, error) {
	if err == nil {
		return 0, nil
	}
	if be, ok := exec.AsBatchError(err); ok {
		return len(be.Failures), nil
	}
	return 0, err
}

// workloadDef is one named workload: its untraced round and its traced
// replay. run executes the unit of work through the public entry points
// (exec.Engine, fleet.Fleet) with obs attached to every engine it creates;
// replay re-executes the same unit layer by layer (see replay.go), checking
// itself against ref, the untraced round with the same inputs.
type workloadDef struct {
	name   string
	unit   string // what one unit of work_per_s is
	run    func(ctx context.Context, p params, round int, obs *telemetry.Observer) (*roundOut, error)
	replay func(ctx context.Context, p params, round int, r *replayer, ref *roundOut) error
}

// workloads lists the benchmark's workloads; README.md says why each is
// there and which layer it loads.
var workloads = []workloadDef{
	{name: "figure6", unit: "cells", run: runFigure6, replay: replayFigure6},
	{name: "serve", unit: "requests", run: serveRun(false), replay: serveReplay(false)},
	{name: "serve-mvee-heal", unit: "requests", run: serveRun(true), replay: serveReplay(true)},
	{name: "rediversify", unit: "builds", run: runRediversify, replay: replayRediversify},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// specModules builds the SPEC-like modules the size asks for.
func specModules(s size) ([]string, []*tir.Module) {
	specs := workload.SPEC()[:s.specModules]
	names := make([]string, len(specs))
	mods := make([]*tir.Module, len(specs))
	for i, b := range specs {
		names[i], mods[i] = b.Name, b.Build(s.specScale)
	}
	return names, mods
}

// figure6Seeds maps the benchmark seed to the two diversification seeds of
// a figure6 round. Seed 1 keeps bench.MeasureOverheads' historical bases (17
// for the baseline, 31 for r2c-full), so its overheads must equal the
// bench.figure6.overhead_pct rows of BENCH_figure6.json.
func figure6Seeds(seed uint64) (base, full uint64) {
	d := (seed - 1) * 1_000_003
	return 17 + d, 31 + d
}

// figure6Machine is the machine profile round k measures: rounds cycle
// through Figure 6's four machines, one RunCells batch each.
func figure6Machine(round int) *vm.Profile {
	ms := vm.AllMachines()
	return ms[round%len(ms)]
}

// figure6Cells plans one machine's batch: each module's baseline cell and
// then its r2c-full cell, side by side. bench.MeasureOverheads submits every
// baseline first; with two workers that order makes the two long nab cells
// race the eleven short cells between them, and whether they overlap swings
// a batch between ≈12 and ≈20 cells/s by the luck of that race. Side by side
// they always overlap. Cells are pure and merge in submission order, so
// the results are the same in either order.
func figure6Cells(mods []*tir.Module, prof *vm.Profile, base, full uint64) []exec.Cell {
	cells := make([]exec.Cell, 0, 2*len(mods))
	for _, m := range mods {
		cells = append(cells,
			exec.Cell{Module: m, Cfg: defense.Off(), Seed: base, Prof: prof},
			exec.Cell{Module: m, Cfg: defense.R2CFull(), Seed: full, Prof: prof})
	}
	return cells
}

func runFigure6(ctx context.Context, p params, round int, obs *telemetry.Observer) (*roundOut, error) {
	prof := figure6Machine(round)
	out := &roundOut{key: prof.Name}
	start := time.Now()
	names, mods := specModules(p.size)
	base, full := figure6Seeds(p.seed)
	eng := exec.New(p.jobs, obs)
	cells := figure6Cells(mods, prof, base, full)
	for _, c := range cells {
		if _, err := eng.BuildImages(ctx, c.Module, c.Cfg, []uint64{c.Seed}); err != nil {
			return nil, fmt.Errorf("pre-warm %s %s: %w", c.Module.Name, c.Cfg.Name, err)
		}
	}
	out.setup = time.Since(start)

	start = time.Now()
	results, err := eng.RunCells(ctx, cells)
	out.work = time.Since(start)
	out.units = len(cells)
	if out.failed, err = batchFailures(err); err != nil {
		return nil, err
	}
	out.cache(eng)

	var ref map[string]float64
	if p.recorded() {
		if ref, err = figure6Reference(); err != nil {
			return nil, err
		}
	}
	h := sha256.New()
	out.cycles = make([]float64, len(results))
	for i, res := range results {
		out.cycles[i] = math.NaN()
		if res != nil {
			out.cycles[i] = res.Cycles
			fmt.Fprintf(h, "%d %x %d %v\n", i, math.Float64bits(res.Cycles), res.Instructions, res.Output)
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	for i, name := range names {
		b, f := results[2*i], results[2*i+1]
		if b == nil || f == nil {
			continue
		}
		if !slices.Equal(b.Output, f.Output) {
			out.fail("figure6 %s on %s: r2c-full output differs from baseline", name, prof.Name)
		}
		if ref != nil {
			key := name + "/" + prof.Name
			if want, got := ref[key], stats.Pct(f.Cycles/b.Cycles); got != want {
				out.fail("figure6 %s: overhead %.17g%%, BENCH_figure6.json has %.17g%%", key, got, want)
			}
		}
	}
	return out, nil
}

// figure6RefFile is the committed Figure 6 baseline, read from the
// directory the benchmark runs in (the root of the checkout).
const figure6RefFile = "BENCH_figure6.json"

var (
	figure6RefOnce sync.Once
	figure6Ref     map[string]float64
	figure6RefErr  error
)

// figure6Reference returns the seed-1 overhead percentages of
// BENCH_figure6.json keyed "benchmark/machine".
func figure6Reference() (map[string]float64, error) {
	figure6RefOnce.Do(func() {
		figure6Ref, figure6RefErr = loadFigure6Reference(figure6RefFile)
	})
	return figure6Ref, figure6RefErr
}

func loadFigure6Reference(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	const prefix = "bench.figure6.overhead_pct{"
	ref := map[string]float64{}
	for k, m := range doc.Metrics {
		if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, "}") {
			continue
		}
		labels := map[string]string{}
		for _, kv := range strings.Split(k[len(prefix):len(k)-1], ",") {
			if name, val, ok := strings.Cut(kv, "="); ok {
				labels[name] = val
			}
		}
		ref[labels["benchmark"]+"/"+labels["machine"]] = m.Value
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("%s: no bench.figure6.overhead_pct rows", path)
	}
	return ref, nil
}

// Fleet settings of the two serve workloads. The attack is r2cserve's
// default overwrite payload against nginx's page buffer, re-leaked after
// every heal, so each attacked request diverges and forces a rebuild.
const (
	fleetVariants = 4
	mveeWidth     = 2
	attackStart   = 50
	attackEvery   = 25
	attackTarget  = "page64"
	attackValue   = 0xbadc0ffee
)

// fleetOptions configures serve, or serve-mvee-heal when mvee is set.
func fleetOptions(mvee bool, p params, m *tir.Module, eng *exec.Engine, obs *telemetry.Observer) fleet.Options {
	o := fleet.Options{
		Module:   m,
		Cfg:      defense.R2CFull(),
		Prof:     vm.EPYCRome(),
		Variants: fleetVariants,
		BaseSeed: p.seed,
		Requests: p.size.serveRequests,
		Eng:      eng,
		Obs:      obs,
	}
	if mvee {
		o.MVEE = mveeWidth
		o.Requests = p.size.healRequests
		o.Attack = fleet.Schedule{Start: attackStart, Every: attackEvery, Mode: fleet.ModeOverwrite,
			Target: attackTarget, Value: attackValue, Adaptive: true}
	}
	return o
}

// initialSeeds are the fleet's starting variants' seeds.
func initialSeeds(o fleet.Options) []uint64 {
	seeds := make([]uint64, o.Variants)
	for i := range seeds {
		seeds[i] = o.BaseSeed + uint64(i)
	}
	return seeds
}

func serveRun(mvee bool) func(context.Context, params, int, *telemetry.Observer) (*roundOut, error) {
	return func(ctx context.Context, p params, _ int, obs *telemetry.Observer) (*roundOut, error) {
		return runServe(ctx, mvee, p, obs)
	}
}

func runServe(ctx context.Context, mvee bool, p params, obs *telemetry.Observer) (*roundOut, error) {
	out := &roundOut{}
	start := time.Now()
	m := workload.NginxRequest()
	eng := exec.New(p.jobs, obs)
	o := fleetOptions(mvee, p, m, eng, obs)
	if _, err := eng.BuildImages(ctx, m, o.Cfg, initialSeeds(o)); err != nil {
		return nil, fmt.Errorf("pre-warm: %w", err)
	}
	fl, err := fleet.New(o)
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(start)

	start = time.Now()
	rep, err := fl.Serve(ctx)
	out.work = time.Since(start)
	if err != nil {
		return nil, err
	}
	out.units = rep.Sim.Requests
	out.heals = rep.Sim.Quarantines
	out.cache(eng)
	s := rep.Sim
	if n := s.SilentCorruptions + s.AttackerWins + s.HealFailures; n > 0 {
		out.fail("fleet: %d silent corruptions, %d attacker wins, %d heal failures", s.SilentCorruptions, s.AttackerWins, s.HealFailures)
	}
	if !mvee && rep.DetectionsTotal() > 0 {
		out.fail("fleet: %d detections on benign traffic", rep.DetectionsTotal())
	}
	if mvee && s.Recoveries == 0 {
		out.fail("fleet: no variant was quarantined and rebuilt")
	}
	body, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	out.digest = hex.EncodeToString(sum[:])
	return out, nil
}

// rediversifySeeds are the fresh seeds every module is rebuilt with.
func rediversifySeeds(p params) []uint64 {
	seeds := make([]uint64, p.size.variants)
	for i := range seeds {
		seeds[i] = p.seed*1_000_000 + uint64(i)
	}
	return seeds
}

// digestImage folds an image's layout and predecoded size into h.
func digestImage(h hash.Hash, img *image.Image) error {
	body, err := json.Marshal(img.LayoutSummary())
	if err != nil {
		return err
	}
	h.Write(body)
	fmt.Fprintf(h, " %d\n", img.Code.NumOps())
	return nil
}

func runRediversify(ctx context.Context, p params, _ int, obs *telemetry.Observer) (*roundOut, error) {
	out := &roundOut{}
	start := time.Now()
	_, mods := specModules(p.size)
	out.setup = time.Since(start)

	seeds := rediversifySeeds(p)
	cfg := defense.R2CFull()
	h := sha256.New()
	for _, m := range mods {
		// A fresh engine per module bounds memory as one r2caudit run does.
		eng := exec.New(p.jobs, obs)
		start := time.Now()
		imgs, err := eng.BuildImages(ctx, m, cfg, seeds)
		out.work += time.Since(start)
		out.units += len(seeds)
		n, err := batchFailures(err)
		if err != nil {
			return nil, err
		}
		out.failed += n
		out.cache(eng)
		for _, img := range imgs {
			if img != nil {
				if err := digestImage(h, img); err != nil {
					return nil, err
				}
			}
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// rejoinTap is a telemetry.Tracer that keeps the wall seconds of every
// fleet rejoin event: exact time-to-replace samples, where the fleet's own
// histogram keeps only quarter-decade buckets.
type rejoinTap struct {
	mu   sync.Mutex
	secs []float64
}

func (t *rejoinTap) Emit(kind string, attrs map[string]any) {
	if kind != "fleet-rejoin" {
		return
	}
	if s, ok := attrs["wall_seconds"].(float64); ok {
		t.mu.Lock()
		t.secs = append(t.secs, s)
		t.mu.Unlock()
	}
}

func (t *rejoinTap) samples() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := append([]float64(nil), t.secs...)
	sort.Float64s(s)
	return s
}
