// Package audit is the variant diversity auditor: it links N re-diversified
// builds of one module under one defense configuration and quantifies how
// random the randomization actually is. R2C's security argument (and the
// AOCR profiling attacks of "Hiding in the Particles") hinges on decoys and
// layout being statistically indistinguishable from real values — so the
// auditor measures exactly what an AOCR adversary would: entropy of
// function/global placement orders, the distributions of BTRA pre/post
// offsets, NOP runs, padding and BTDP placement, register-allocation
// divergence, and the pairwise survivor surface — addresses, gadget-like
// instruction windows and data words that survive unchanged across variant
// pairs, the residue address-oblivious code reuse feeds on.
//
// Builds fan through the exec engine (shared build cache, pipeline spans,
// /progress visibility); everything downstream of the build is a serial,
// index-ordered fold over the variant summaries, so the report is
// byte-identical at any -jobs width.
package audit

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/image"
	"r2c/internal/tir"
)

// gadgetLen is the instruction-window length of the gadget survivor
// analysis: long enough that a surviving window is a usable reuse target,
// short enough that survivors still occur in weak configs.
const gadgetLen = 5

// Options configures one audit run.
type Options struct {
	// Module and Cfg identify what is being audited; Variants is the
	// number of re-diversified builds (≥ 2 for any pairwise statistic).
	Module   *tir.Module
	Cfg      defense.Config
	Variants int
	// BaseSeed seeds variant i with BaseSeed+i.
	BaseSeed uint64
	// Eng is the execution engine builds fan through. Required. Its Obs
	// receives the build spans and the audit histograms and gauges (see
	// Report.Publish); a nil Obs disables telemetry.
	Eng *exec.Engine
	// Ctx cancels the build fan-out; nil means context.Background().
	Ctx context.Context
}

// variantSummary is everything the report needs from one linked variant;
// images are released as soon as their summary is extracted.
type variantSummary struct {
	funcOrder   []string          // module functions in text order
	globalOrder []string          // module globals in data order
	funcOff     map[string]uint64 // every function → text offset
	globalOff   map[string]uint64 // every global → data offset
	gadgetSigs  map[uint64]uint64 // instr text offset → window signature
	dataWords   map[uint64]uint64 // data offset → normalized init word

	pre, post, nops []int64
	strategies      map[string]uint64 // push/avx2/none call-site counts
	padSizes        []int64
	btdpCounts      []int64
	btdpSlotOffs    []int64
	regOrders       map[string]string // function → reg-alloc pool order
}

// Run links opt.Variants re-diversified images and folds them into a
// diversity Report. Failed builds fail the audit (a diversity estimate over
// a partial variant set would silently understate the attack surface).
func Run(opt Options) (*Report, error) {
	if opt.Module == nil || opt.Eng == nil {
		return nil, errors.New("audit: Module and Eng are required")
	}
	if opt.Variants < 2 {
		return nil, fmt.Errorf("audit: need at least 2 variants, got %d", opt.Variants)
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	seeds := make([]uint64, opt.Variants)
	for i := range seeds {
		seeds[i] = opt.BaseSeed + uint64(i)
	}
	images, err := opt.Eng.BuildImages(ctx, opt.Module, opt.Cfg, seeds)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}

	// Serial, index-ordered extraction and fold: the one place determinism
	// lives. Everything after this point is pure computation over the
	// summaries.
	vars := make([]*variantSummary, len(images))
	for i, img := range images {
		vars[i] = summarize(img)
		images[i] = nil // release the image; summaries are self-contained
	}
	rep := fold(opt, vars)
	rep.Publish(opt.Eng.Obs)
	return rep, nil
}

// summarize extracts one variant's diversity-relevant features.
func summarize(img *image.Image) *variantSummary {
	ls := img.LayoutSummary()
	v := &variantSummary{
		funcOrder:   ls.FuncNames(false),
		globalOrder: ls.GlobalNames(),
		funcOff:     make(map[string]uint64, len(ls.Funcs)),
		globalOff:   map[string]uint64{},
		gadgetSigs:  map[uint64]uint64{},
		dataWords:   make(map[uint64]uint64, len(img.DataInit)),
		strategies:  map[string]uint64{},
		regOrders:   map[string]string{},
	}
	for _, fs := range ls.Funcs {
		v.funcOff[fs.Name] = fs.Off
	}
	for _, d := range ls.Data {
		switch d.Kind {
		case image.DataGlobal:
			v.globalOff[d.Name] = d.Off
		case image.DataPad:
			v.padSizes = append(v.padSizes, int64(d.Size))
		}
	}

	// Per-function code-generation choices, in text order so the fold is
	// order-deterministic.
	for _, name := range img.FuncOrder {
		f := img.Funcs[name].F
		if f.BoobyTrap || f.Stub || name == image.EntrySym {
			continue
		}
		v.btdpCounts = append(v.btdpCounts, int64(f.NumBTDPs))
		for _, s := range f.Slots {
			if s.Kind == codegen.SlotBTDP {
				v.btdpSlotOffs = append(v.btdpSlotOffs, s.Offset)
			}
		}
		if len(f.RegAllocOrder) > 0 {
			key := ""
			for _, r := range f.RegAllocOrder {
				key += r.String() + ","
			}
			v.regOrders[name] = key
		}
		for _, cs := range f.CallSites {
			v.nops = append(v.nops, int64(cs.NumNOPs))
			switch {
			case cs.ArraySym != "":
				v.strategies["avx2"]++
			case cs.Pre+cs.Post > 0:
				v.strategies["push"]++
			default:
				v.strategies["none"]++
			}
			if cs.Pre+cs.Post > 0 {
				v.pre = append(v.pre, int64(cs.Pre))
				v.post = append(v.post, int64(cs.Post))
			}
		}
	}

	// Gadget-like instruction windows: for every instruction boundary,
	// hash the next gadgetLen instructions' operation shape (kinds and
	// registers, not resolved immediates — an attacker reusing a window
	// cares that the same operations on the same registers sit at the same
	// address). Windows stay within one function, like real gadget scans
	// stay within mapped code. Booby-trap bodies are excluded: the pool's
	// trap functions are deliberately homogeneous, so their windows collide
	// across variants at matching offsets — but transferring into one is a
	// detonation, not a reuse, so they are detection surface, not attack
	// surface.
	for _, name := range img.FuncOrder {
		pf := img.Funcs[name]
		if pf.F.BoobyTrap {
			continue
		}
		instrs := pf.F.Instrs
		for i := range instrs {
			if i+gadgetLen > len(instrs) {
				break
			}
			h := fnv.New64a()
			var buf [9]byte
			for j := i; j < i+gadgetLen; j++ {
				in := &instrs[j]
				buf[0] = byte(in.Kind)
				buf[1] = byte(in.Alu)
				buf[2] = byte(in.Cmp)
				buf[3] = byte(in.Sys)
				buf[4] = byte(in.Dst)
				buf[5] = byte(in.Src)
				buf[6] = byte(in.A)
				buf[7] = byte(in.B)
				buf[8] = byte(in.Base)
				h.Write(buf[:])
			}
			v.gadgetSigs[pf.InstrAddrs[i]-img.TextBase] = h.Sum64()
		}
	}

	// Initialized data words, ASLR-normalized: words pointing into a
	// segment are reduced to (segment tag, offset) so two variants that
	// differ only in their slides still compare equal — exactly the
	// adversary's view after rebasing a leak.
	for addr, w := range img.DataInit {
		v.dataWords[addr-img.DataBase] = normalizeWord(img, w)
	}
	return v
}

// normalizeWord maps a data word to an ASLR-independent representation:
// segment-relative offsets tagged per segment, raw value otherwise. Tags
// live in the top byte, far above any segment offset.
func normalizeWord(img *image.Image, w uint64) uint64 {
	const tagShift = 56
	switch {
	case w >= img.TextBase && w < img.TextEnd:
		return 1<<tagShift | (w - img.TextBase)
	case w >= img.DataBase && w < img.DataEnd:
		return 2<<tagShift | (w - img.DataBase)
	case w >= img.HeapBase && w < img.HeapEnd:
		return 3<<tagShift | (w - img.HeapBase)
	case w >= img.StackLow && w < img.StackHi:
		return 4<<tagShift | (w - img.StackLow)
	}
	return w
}

// distOf folds per-variant int64 observations into one Dist.
func distOf(vars []*variantSummary, pick func(*variantSummary) []int64) Dist {
	d := Dist{}
	for _, v := range vars {
		for _, x := range pick(v) {
			d.Observe(x)
		}
	}
	return d
}

// regAllocStats measures register-allocation divergence: for every function
// present in all variants, the entropy of its pool-order sequence across
// variants, averaged; plus the fraction of functions whose order diverged
// at all.
func regAllocStats(vars []*variantSummary, variants int) (meanEntropy EntropyStat, divergedFrac float64, measured int) {
	if len(vars) == 0 {
		return NewEntropyStat(0, variants), 0, 0
	}
	names := make([]string, 0, len(vars[0].regOrders))
	for name := range vars[0].regOrders {
		names = append(names, name)
	}
	sort.Strings(names)
	var sumBits float64
	diverged := 0
	for _, name := range names {
		seqs := make([]string, 0, len(vars))
		present := true
		for _, v := range vars {
			s, ok := v.regOrders[name]
			if !ok {
				present = false
				break
			}
			seqs = append(seqs, s)
		}
		if !present {
			continue
		}
		measured++
		bits := SequenceEntropy(seqs)
		sumBits += bits
		if bits > 0 {
			diverged++
		}
	}
	if measured == 0 {
		return NewEntropyStat(0, variants), 0, 0
	}
	return NewEntropyStat(sumBits/float64(measured), variants),
		roundStat(float64(diverged) / float64(measured)), measured
}
