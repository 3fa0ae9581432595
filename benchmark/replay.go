package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/fleet"
	"r2c/internal/image"
	"r2c/internal/mvee"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// Fleet defaults the replay repeats: fleet.New's per-request fuel and MVEE
// lockstep slice budget.
const (
	requestFuel = 5_000_000
	sliceInstrs = 100_000
	maxSlices   = 50
)

// layers are the replay's span names in table order. Each is one call into
// one package; the spans do not nest, so their durations partition the
// replay's time up to the replay's own bookkeeping (unattributed_s).
var layers = []string{"tir.build", "tir.verify", "codegen.compile", "image.link", "pcode.build", "rt.load", "vm.exec", "mvee.run"}

type layerTotal struct {
	calls int
	d     time.Duration
}

// replayer re-executes a round's unit of work by calling each layer's
// function directly and recording a span around every call. The spans are
// the benchmark's own, around its calls into the program; the program's
// internal spans stay off.
type replayer struct {
	root  *telemetry.Span
	start time.Time
	cur   *telemetry.Span // the unit being replayed
	unit  string          // its id, shared by all its spans

	// setup marks calls that build the round's inputs rather than serve its
	// unit of work; workLayers counts only the others.
	setup      bool
	layers     map[string]*layerTotal
	workLayers map[string]time.Duration

	execInstr, mveeInstr uint64 // instructions retired under vm.exec / mvee.run
	ops                  int    // predecoded ops of every replayed image
	units, failed        int
	total                time.Duration
}

func newReplayer(sink telemetry.SpanSink, round int) *replayer {
	r := &replayer{
		root:       telemetry.StartSpan(sink, "replay", uint64(round)),
		start:      time.Now(),
		layers:     map[string]*layerTotal{},
		workLayers: map[string]time.Duration{},
	}
	for _, l := range layers {
		r.layers[l] = &layerTotal{}
	}
	return r
}

// finish closes the replay's root span and fixes its total.
func (r *replayer) finish() {
	r.root.End()
	r.total = time.Since(r.start)
}

func (r *replayer) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "r2cperf: replay check failed: "+format+"\n", args...)
}

// begin opens the span of one unit of work; its layer spans share its id.
func (r *replayer) begin(kind string, i int) {
	r.cur = r.root.Child(kind, uint64(i))
	r.unit = fmt.Sprintf("%s-%d", kind, i)
	r.cur.SetAttr("unit", r.unit)
}

func (r *replayer) end() {
	r.cur.End()
	r.cur, r.unit = nil, ""
}

// call runs f inside a span named layer and charges its duration there.
func (r *replayer) call(layer string, f func() error) error {
	parent := r.cur
	if parent == nil {
		parent = r.root
	}
	lt := r.layers[layer]
	sp := parent.Child(layer, uint64(lt.calls))
	sp.SetAttr("unit", r.unit)
	start := time.Now()
	err := f()
	d := time.Since(start)
	sp.End()
	lt.calls++
	lt.d += d
	if !r.setup {
		r.workLayers[layer] += d
	}
	return err
}

// build repeats sim.BuildImage one layer at a time. The separate Verify and
// the second RebuildCode are probes: codegen.Compile verifies again inside,
// and image.Link already predecoded once, so link self time is link minus
// the probe's rebuild.
func (r *replayer) build(m *tir.Module, cfg defense.Config, seed uint64) (*image.Image, error) {
	if err := r.call("tir.verify", m.Verify); err != nil {
		return nil, err
	}
	var prog *codegen.Program
	err := r.call("codegen.compile", func() (err error) {
		prog, err = codegen.Compile(m, cfg, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	var img *image.Image
	err = r.call("image.link", func() (err error) {
		// sim.BuildImage's link seed, so the image is the one the exec
		// engine builds and caches for (m, cfg, seed); figure6's replayed
		// cycles check that.
		img, err = image.Link(prog, seed*0x9e3779b97f4a7c15+1)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.call("pcode.build", func() error { img.RebuildCode(); return nil })
	r.ops += img.Code.NumOps()
	return img, nil
}

func (r *replayer) load(img *image.Image, seed uint64) (*rt.Process, error) {
	var proc *rt.Process
	err := r.call("rt.load", func() (err error) {
		proc, err = sim.NewProcessFromImage(img, seed, nil)
		return err
	})
	return proc, err
}

// run loads img and executes it to a halt on prof within fuel instructions.
func (r *replayer) run(img *image.Image, seed uint64, prof *vm.Profile, fuel uint64) (*vm.Result, error) {
	proc, err := r.load(img, seed)
	if err != nil {
		return nil, err
	}
	var res *vm.Result
	err = r.call("vm.exec", func() (err error) {
		res, err = vm.New(proc, prof).Run(fuel)
		return err
	})
	if res != nil {
		r.execInstr += res.Instructions
	}
	if err == nil && (!res.Halted || res.Trap != nil || res.Fault != nil) {
		err = fmt.Errorf("run did not halt cleanly")
	}
	return res, err
}

func (r *replayer) modules(build func()) {
	r.call("tir.build", func() error { build(); return nil })
}

func replayFigure6(ctx context.Context, p params, round int, r *replayer, ref *roundOut) error {
	prof := figure6Machine(round)
	base, full := figure6Seeds(p.seed)
	r.setup = true
	var mods []*tir.Module
	r.modules(func() { _, mods = specModules(p.size) })
	cells := figure6Cells(mods, prof, base, full)
	imgs := make([]*image.Image, len(cells))
	for i, c := range cells {
		r.begin("build", i)
		img, err := r.build(c.Module, c.Cfg, c.Seed)
		r.end()
		if err != nil {
			return fmt.Errorf("build %s %s: %w", c.Module.Name, c.Cfg.Name, err)
		}
		imgs[i] = img
	}
	r.setup = false
	for i, c := range cells {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.begin("cell", i)
		res, err := r.run(imgs[i], c.Seed, c.Prof, sim.DefaultBudget)
		r.end()
		r.units++
		switch {
		case err != nil:
			r.fail("figure6 cell %d: %v", i, err)
		case res.Cycles != ref.cycles[i]:
			r.fail("figure6 cell %d: replay ran %.17g cycles, RunCells %.17g", i, res.Cycles, ref.cycles[i])
		}
	}
	return nil
}

// attacked mirrors fleet.Schedule's rule for which requests are malicious.
func attacked(s fleet.Schedule, req int) bool {
	return s.Mode != "" && s.Every > 0 && req >= s.Start && (req-s.Start)%s.Every == 0
}

func serveReplay(mvee bool) func(context.Context, params, int, *replayer, *roundOut) error {
	return func(ctx context.Context, p params, _ int, r *replayer, ref *roundOut) error {
		return replayServe(ctx, mvee, p, r, ref)
	}
}

// replayServe repeats a fleet run's operations with its seeds and counts:
// the golden run, every request's loads and execution (lockstep under the
// MVEE when mvee is set, with the attack's corrupting write), and one heal
// build per quarantine of ref, with the fleet's heal seeds in order. Which
// variant serves which request is the replay's round-robin, not the
// fleet's scheduler, so the replay's outputs are not checked against ref.
func replayServe(ctx context.Context, mveeOn bool, p params, r *replayer, ref *roundOut) error {
	type variant struct {
		img  *image.Image
		seed uint64
	}
	r.setup = true
	var m *tir.Module
	r.modules(func() { m = workload.NginxRequest() })
	o := fleetOptions(mveeOn, p, m, nil, nil)
	slots := make([]variant, o.Variants)
	for i, seed := range initialSeeds(o) {
		r.begin("build", i)
		img, err := r.build(m, o.Cfg, seed)
		r.end()
		if err != nil {
			return err
		}
		slots[i] = variant{img, seed}
	}
	r.setup = false

	r.begin("golden", 0)
	_, err := r.run(slots[0].img, slots[0].seed, o.Prof, requestFuel)
	r.end()
	if err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	attacks := 0
	for i := 0; i < o.Requests; i++ {
		if attacked(o.Attack, i) {
			attacks++
		}
	}
	heals, seen := 0, 0
	for i := 0; i < o.Requests; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.begin("request", i)
		r.units++
		if !mveeOn {
			s := slots[i%len(slots)]
			if _, err := r.run(s.img, s.seed, o.Prof, requestFuel); err != nil {
				r.fail("request %d: %v", i, err)
			}
			r.end()
			continue
		}
		me := &mvee.Engine{}
		for j := 0; j < o.MVEE; j++ {
			s := slots[(i*o.MVEE+j)%len(slots)]
			proc, err := r.load(s.img, s.seed)
			if err != nil {
				r.end()
				return err
			}
			me.Variants = append(me.Variants, &mvee.Variant{Seed: s.seed, Proc: proc, Mach: vm.New(proc, o.Prof)})
		}
		hit := attacked(o.Attack, i)
		if hit {
			ds := me.Variants[0].Proc.Img.DataSyms[o.Attack.Target]
			if ds == nil {
				r.end()
				return fmt.Errorf("attack target %q missing", o.Attack.Target)
			}
			me.CorruptAll(ds.Addr, o.Attack.Value)
		}
		var verdict *mvee.Verdict
		err := r.call("mvee.run", func() (err error) {
			verdict, err = me.Run(sliceInstrs, maxSlices)
			return err
		})
		if err != nil {
			r.end()
			return fmt.Errorf("request %d: supervisor: %w", i, err)
		}
		for _, res := range verdict.Results {
			if res != nil {
				r.mveeInstr += res.Instructions
			}
		}
		if !hit && verdict.Detected() {
			r.fail("request %d: benign request diverged: %s", i, verdict.Reason)
		}
		if hit {
			// Spread ref's heal builds over the attacks, as the fleet
			// rebuilds after each detecting request.
			seen++
			for heals < ref.heals*seen/attacks {
				seed := o.BaseSeed + uint64(o.Variants+heals)
				img, err := r.build(m, o.Cfg, seed)
				if err != nil {
					r.end()
					return fmt.Errorf("heal build %d: %w", heals, err)
				}
				slots[heals%len(slots)] = variant{img, seed}
				heals++
			}
		}
		r.end()
	}
	return nil
}

func replayRediversify(ctx context.Context, p params, _ int, r *replayer, ref *roundOut) error {
	r.setup = true
	var mods []*tir.Module
	r.modules(func() { _, mods = specModules(p.size) })
	r.setup = false
	seeds := rediversifySeeds(p)
	cfg := defense.R2CFull()
	h := sha256.New()
	for mi, m := range mods {
		for si, seed := range seeds {
			if err := ctx.Err(); err != nil {
				return err
			}
			r.begin("build", mi*len(seeds)+si)
			img, err := r.build(m, cfg, seed)
			r.end()
			r.units++
			if err != nil {
				r.fail("%s seed %d: %v", m.Name, seed, err)
				continue
			}
			if err := digestImage(h, img); err != nil {
				return err
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ref.digest {
		r.fail("rediversify: replayed images digest %s, BuildImages %s", got, ref.digest)
	}
	return nil
}
