// Package vm executes linked program images on the simulated machine and
// charges every instruction against a microarchitectural cost model: base
// costs per instruction kind plus a set-associative instruction-cache
// simulation. The i-cache is the load-bearing part — the paper attributes
// the push-vs-AVX2 gap and the prolog-trap overhead to instruction-cache
// pressure (Section 7.1) — and the per-machine profiles reproduce the
// hardware spread of Figure 6.
package vm

import "r2c/internal/isa"

// Profile models one evaluation machine (Section 6.1).
type Profile struct {
	Name string
	// GHz converts cycles to wall-clock seconds in reports.
	GHz float64

	// Instruction cache geometry.
	ICacheBytes       int
	ICacheLineB       int
	ICacheWays        int
	ICacheMissPenalty float64 // cycles per L1i miss

	// Base instruction costs in cycles (reciprocal-throughput flavored;
	// below 1.0 models superscalar issue).
	Cost [32]float64

	// MulCost/DivCost override KAlu for the expensive suboperations.
	MulCost, DivCost float64

	// AVXDirtyPenalty is the SSE/AVX transition penalty charged to a call
	// executed with dirty upper vector state (the cost vzeroupper avoids,
	// Section 5.1.2).
	AVXDirtyPenalty float64

	// VecWidthBits is the widest supported vector operation.
	VecWidthBits int

	// SysCost is the flat cost of a runtime service (allocator, output).
	SysCost float64

	// Cores is the physical core count; the webserver experiment models
	// wrk/server core sharing (context-switch cache pollution) on small
	// machines (Section 6.2.4 splits cores between wrk and the server).
	Cores int
}

// baseCosts fills a cost table with common defaults; profiles tweak it.
func baseCosts() [32]float64 {
	var c [32]float64
	set := func(k isa.Kind, v float64) { c[k] = v }
	set(isa.KMovImm, 0.25)
	set(isa.KMovReg, 0.25)
	set(isa.KLoad, 0.6)
	set(isa.KStore, 0.6)
	set(isa.KLea, 0.25)
	set(isa.KAlu, 0.3)
	set(isa.KAluImm, 0.3)
	set(isa.KSet, 0.6)
	set(isa.KPush, 0.6)
	set(isa.KPushImm, 0.7)
	set(isa.KPop, 0.6)
	set(isa.KCall, 2.2)
	set(isa.KCallInd, 3.5)
	set(isa.KRet, 2.0)
	set(isa.KJmp, 0.9)
	set(isa.KJz, 0.8)
	set(isa.KJnz, 0.8)
	set(isa.KNop, 0.12)
	set(isa.KTrap, 1)
	set(isa.KVLoad, 0.6)
	set(isa.KVStore, 0.8)
	set(isa.KVStoreA, 0.8)
	set(isa.KVZeroUpper, 1.2)
	set(isa.KSys, 1)
	set(isa.KHalt, 1)
	return c
}

// EPYCRome models the AMD EPYC Rome 7H12 machine (Zen 2: 32 KiB 8-way L1i,
// fast short stores, moderate L2 latency).
func EPYCRome() *Profile {
	return &Profile{
		Name: "EPYC Rome", GHz: 3.2,
		ICacheBytes: 32 << 10, ICacheLineB: 64, ICacheWays: 8,
		ICacheMissPenalty: 15,
		Cost:              baseCosts(),
		MulCost:           3, DivCost: 14,
		AVXDirtyPenalty: 45,
		VecWidthBits:    256,
		SysCost:         38,
		Cores:           64,
	}
}

// I99900K models the Intel Core i9-9900K (Coffee Lake: 32 KiB 8-way L1i,
// slightly pricier push-heavy code and a larger miss penalty, which is why
// perlbench suffers more there in Figure 6).
func I99900K() *Profile {
	p := &Profile{
		Name: "i9-9900K", GHz: 3.6,
		ICacheBytes: 32 << 10, ICacheLineB: 64, ICacheWays: 8,
		ICacheMissPenalty: 18,
		Cost:              baseCosts(),
		MulCost:           3, DivCost: 21,
		AVXDirtyPenalty: 70,
		VecWidthBits:    256,
		SysCost:         55,
		Cores:           8,
	}
	p.Cost[isa.KPush] = 0.7
	p.Cost[isa.KPushImm] = 0.8
	p.Cost[isa.KCall] = 2.5
	return p
}

// TR3970X models the AMD Threadripper 3970X (Zen 2, higher clock, slower
// memory configuration in the paper's setup).
func TR3970X() *Profile {
	p := EPYCRome()
	p.Name = "TR 3970X"
	p.GHz = 3.7
	p.ICacheMissPenalty = 15.5
	p.Cores = 32
	return p
}

// Xeon8358 models the Intel Xeon Platinum 8358 (Ice Lake SP: 32 KiB 8-way
// L1i and a long L2 round trip on the mesh — the highest-overhead machine
// in Figure 6 at 8.5% geomean).
func Xeon8358() *Profile {
	p := &Profile{
		Name: "Xeon", GHz: 2.6,
		ICacheBytes: 32 << 10, ICacheLineB: 64, ICacheWays: 8,
		ICacheMissPenalty: 21,
		Cost:              baseCosts(),
		MulCost:           3, DivCost: 18,
		AVXDirtyPenalty: 65,
		VecWidthBits:    512,
		SysCost:         60,
		Cores:           32,
	}
	p.Cost[isa.KPush] = 0.75
	p.Cost[isa.KPushImm] = 0.85
	p.Cost[isa.KCall] = 2.6
	return p
}

// AllMachines returns the four evaluation machines in Figure 6's legend
// order.
func AllMachines() []*Profile {
	return []*Profile{I99900K(), EPYCRome(), TR3970X(), Xeon8358()}
}

// icache is a set-associative LRU instruction cache model. The tags live in
// one flat array: set s owns tags[s*ways : s*ways+fill[s]], most recent
// first, so emptying the cache is clearing fill.
type icache struct {
	tags     []uint64
	fill     []int32
	ways     int
	lineBits uint
	setMask  uint64
	misses   uint64
	accesses uint64
}

func newICache(p *Profile) *icache {
	lineBits := uint(0)
	for 1<<lineBits < p.ICacheLineB {
		lineBits++
	}
	nSets := p.ICacheBytes / (p.ICacheLineB * p.ICacheWays)
	if nSets < 1 {
		nSets = 1
	}
	return &icache{
		tags:     make([]uint64, nSets*p.ICacheWays),
		fill:     make([]int32, nSets),
		ways:     p.ICacheWays,
		lineBits: lineBits,
		setMask:  uint64(nSets - 1),
	}
}

// flush empties the cache (used to model a context switch polluting the
// instruction cache when server and load generator share cores).
func (c *icache) flush() { clear(c.fill) }

// reset empties the cache and zeroes its counters: the state newICache
// returns.
func (c *icache) reset() {
	c.flush()
	c.misses, c.accesses = 0, 0
}

// mru reports whether the line containing addr is already the most recent
// in its set, and counts the access when it is: a hit that leaves the LRU
// order as it was, exactly what access would have done. Call-free so it
// inlines ahead of access at both of the dispatch loop's fetch sites (make
// check verifies).
func (c *icache) mru(addr uint64) bool {
	line := addr >> c.lineBits
	s := line & c.setMask
	if c.fill[s] == 0 || c.tags[int(s)*c.ways] != line {
		return false
	}
	c.accesses++
	return true
}

// access touches the line containing addr and reports whether it missed.
func (c *icache) access(addr uint64) bool {
	line := addr >> c.lineBits
	s := line & c.setMask
	base := int(s) * c.ways
	n := int(c.fill[s])
	set := c.tags[base : base+n]
	c.accesses++
	for i, tag := range set {
		if tag == line {
			// Move to front (LRU).
			copy(set[1:i+1], set[:i])
			set[0] = line
			return false
		}
	}
	c.misses++
	if n < c.ways {
		n++
		c.fill[s] = int32(n)
		set = c.tags[base : base+n]
	}
	copy(set[1:], set)
	set[0] = line
	return true
}
