package codegen

import (
	"sort"

	"r2c/internal/isa"
	"r2c/internal/rng"
	"r2c/internal/tir"
)

// allocatablePool is the set of machine registers virtual registers may be
// assigned to. All are callee-saved, which keeps call sites trivial (no
// caller-saved live values to protect around calls) at the price of
// prologue pushes — a common strategy for simple backends. The pool order
// is the register-allocation randomization knob of Section 4.3: shuffling
// it diversifies both which registers hold which values and which spill
// slots the prologue pushes, so leaked frames differ across builds.
var allocatablePool = []isa.Reg{isa.RBX, isa.R12, isa.R13, isa.R14, isa.R15}

// loc is a virtual register's home: a machine register or a frame slot.
type loc struct {
	reg     isa.Reg // valid when spilled == false
	spilled bool
	slot    int // spill slot index when spilled
}

// allocation is the result of register allocation for one function.
type allocation struct {
	locs      []loc     // per virtual register
	usedPool  []isa.Reg // pool registers actually used, in pool order
	poolOrder []isa.Reg // the (possibly shuffled) allocation pool order
	numSpills int
}

// interval is a virtual register's live range over the linearized
// instruction index space.
type interval struct {
	vreg       tir.Reg
	start, end int
}

// liveIntervals computes conservative live intervals: each vreg lives from
// its first to its last textual occurrence, extended over any loop whose
// body it overlaps (a vreg read inside a loop is live across the back edge
// even if its last textual occurrence precedes the branch).
func liveIntervals(f *tir.Function) []interval {
	first := make([]int, f.NRegs)
	last := make([]int, f.NRegs)
	for i := range first {
		first[i] = -1
	}
	// Linearize: global instruction index over blocks in order.
	blockStart := make([]int, len(f.Blocks))
	idx := 0
	// Operands an instruction does not use hold NoReg or 0; a function
	// with no registers has no register 0 to extend.
	touch := func(r tir.Reg, at int) {
		if r < 0 || int(r) >= f.NRegs {
			return
		}
		if first[r] == -1 {
			first[r] = at
		}
		last[r] = at
	}
	type backEdge struct{ targetStart, branchIdx int }
	var backEdges []backEdge
	for bi, b := range f.Blocks {
		blockStart[bi] = idx
		for _, in := range b.Instrs {
			touch(in.Dst, idx)
			touch(in.A, idx)
			touch(in.B, idx)
			for _, a := range in.Args {
				touch(a, idx)
			}
			if in.Op == tir.OpBr || in.Op == tir.OpCondBr {
				if in.Target <= bi {
					backEdges = append(backEdges, backEdge{-1 /*fill below*/, idx})
					backEdges[len(backEdges)-1].targetStart = in.Target // temp: block id
				}
				if in.Op == tir.OpCondBr && in.Else <= bi {
					backEdges = append(backEdges, backEdge{in.Else, idx})
				}
			}
			idx++
		}
	}
	for i := range backEdges {
		backEdges[i].targetStart = blockStart[backEdges[i].targetStart]
	}
	// Parameters are live from function entry.
	for p := 0; p < f.NParams; p++ {
		if first[p] == -1 {
			first[p] = 0
			last[p] = 0
		}
		first[p] = 0
	}
	// Extend intervals over loops to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, be := range backEdges {
			for r := 0; r < f.NRegs; r++ {
				if first[r] == -1 {
					continue
				}
				// Overlaps the loop body [targetStart, branchIdx]?
				if first[r] <= be.branchIdx && last[r] >= be.targetStart {
					if last[r] < be.branchIdx {
						last[r] = be.branchIdx
						changed = true
					}
					if first[r] > be.targetStart {
						first[r] = be.targetStart
						changed = true
					}
				}
			}
		}
	}
	out := make([]interval, 0, f.NRegs)
	for r := 0; r < f.NRegs; r++ {
		if first[r] != -1 {
			out = append(out, interval{tir.Reg(r), first[r], last[r]})
		}
	}
	return out
}

// allocate runs a linear-scan register allocation over the pool. When
// randomize is true the pool order is shuffled (register-allocation
// randomization); otherwise the fixed order is used, giving the baseline a
// deterministic assignment.
func allocate(f *tir.Function, randomize bool, r *rng.RNG) allocation {
	pool := make([]isa.Reg, len(allocatablePool))
	copy(pool, allocatablePool)
	if randomize {
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}

	ivs := liveIntervals(f)
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].vreg < ivs[j].vreg
	})

	a := allocation{locs: make([]loc, f.NRegs), poolOrder: pool}
	for i := range a.locs {
		a.locs[i] = loc{spilled: true, slot: -1} // dead vregs default
	}
	freeRegs := append([]isa.Reg(nil), pool...)
	type active struct {
		end int
		reg isa.Reg
	}
	var act []active
	used := map[isa.Reg]bool{}
	nextSlot := 0

	for _, iv := range ivs {
		// Expire finished intervals.
		keep := act[:0]
		for _, ac := range act {
			if ac.end >= iv.start {
				keep = append(keep, ac)
			} else {
				freeRegs = append(freeRegs, ac.reg)
			}
		}
		act = keep
		if len(freeRegs) > 0 {
			reg := freeRegs[0]
			freeRegs = freeRegs[1:]
			a.locs[iv.vreg] = loc{reg: reg}
			act = append(act, active{iv.end, reg})
			used[reg] = true
			continue
		}
		// Spill the new interval (simplest policy; fine at our scale).
		a.locs[iv.vreg] = loc{spilled: true, slot: nextSlot}
		nextSlot++
	}
	a.numSpills = nextSlot
	for _, reg := range pool {
		if used[reg] {
			a.usedPool = append(a.usedPool, reg)
		}
	}
	return a
}
