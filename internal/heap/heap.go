// Package heap implements the simulated process heap: a glibc-malloc-like
// span allocator layered over the paged address space.
//
// The BTDP design (Section 5.2 of the paper) leans on four properties of the
// real allocator, all of which this implementation provides:
//
//  1. allocations come out of the heap's value range, so pointers into them
//     cluster with benign heap pointers under AOCR's statistical analysis;
//  2. page-aligned, page-sized allocations exist (AllocAligned), so a chunk
//     can be protected at page granularity;
//  3. an allocation's pages can have their permissions revoked (Protect),
//     turning the chunk into a guard page;
//  4. chunks that are allocated and never freed are never reused for other
//     allocations, so a guard page stays a guard page.
//
// Placement is randomized (seeded) so that the surviving guard pages from
// the constructor's allocate-then-free-a-subset dance end up scattered.
package heap

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"r2c/internal/mem"
	"r2c/internal/rng"
	"r2c/internal/telemetry"
)

// MinAlign is the minimum alignment of returned chunks, matching glibc.
const MinAlign = 16

// Allocator manages a [base, limit) heap region inside a Space.
type Allocator struct {
	space *mem.Space
	base  uint64
	limit uint64
	brk   uint64 // next fresh address
	rnd   *rng.RNG

	allocs []span // live allocations, sorted by address
	free   []span // sorted, coalesced free spans below brk
	// bufs is the pooled box allocs and free return to on Release (nil
	// unless a came from Fork).
	bufs *spanBufs

	livePages  int // pages touched by at least one live allocation
	liveBytes  uint64
	totalAlloc uint64
	numAllocs  uint64
	numFrees   uint64
}

type span struct{ addr, size uint64 }

// last returns the page number of the span's final byte.
func (s span) last() uint64 { return (s.addr + s.size - 1) >> mem.PageShift }

// New creates an allocator over [base, limit). base must be page-aligned.
func New(space *mem.Space, base, limit uint64, r *rng.RNG) (*Allocator, error) {
	if base&mem.PageMask != 0 {
		return nil, fmt.Errorf("heap: base %#x not page aligned", base)
	}
	if limit <= base {
		return nil, fmt.Errorf("heap: empty region [%#x,%#x)", base, limit)
	}
	return &Allocator{
		space: space,
		base:  base,
		limit: limit,
		brk:   base,
		rnd:   r,
	}, nil
}

// Fork returns a copy of a whose pages live in space, a Fork of a's space:
// the same live allocations, free spans, counters and RNG state, so the
// copy places every later allocation exactly where a would have. a itself
// is not modified and may be forked again, from several goroutines.
func (a *Allocator) Fork(space *mem.Space) *Allocator {
	f := *a
	f.space = space
	f.bufs = spanPool.Get().(*spanBufs)
	f.allocs = append(f.bufs.allocs[:0], a.allocs...)
	f.free = append(f.bufs.free[:0], a.free...)
	r := *a.rnd
	f.rnd = &r
	return &f
}

// spanBufs holds a released allocator's span slices. The box itself is
// recycled with them, so a warm Fork/Release cycle allocates no metadata.
type spanBufs struct{ allocs, free []span }

// spanPool recycles the span slices of released allocators (see Release).
var spanPool = sync.Pool{New: func() any { return new(spanBufs) }}

// Release returns a's metadata slices to a pool later Forks draw from. Call
// it when a will not be used again; its pages are released with its space.
func (a *Allocator) Release() {
	b := a.bufs
	if b == nil {
		b = new(spanBufs)
	}
	b.allocs, b.free = a.allocs[:0], a.free[:0]
	spanPool.Put(b)
	a.allocs, a.free, a.bufs = nil, nil, nil
}

// find returns the index of the live allocation at addr, or where one
// would be inserted.
func (a *Allocator) find(addr uint64) (int, bool) {
	i := sort.Search(len(a.allocs), func(i int) bool { return a.allocs[i].addr >= addr })
	return i, i < len(a.allocs) && a.allocs[i].addr == addr
}

// exclusive returns the pages [lo, hi) of allocs[i] that no other live
// allocation touches. Allocations never overlap, so only the first page can
// be shared (with the previous allocation) and only the last (with the
// next).
func (a *Allocator) exclusive(i int) (lo, hi uint64) {
	s := a.allocs[i]
	lo, hi = s.addr>>mem.PageShift, s.last()+1
	if i > 0 && a.allocs[i-1].last() == lo {
		lo++
	}
	if i+1 < len(a.allocs) && a.allocs[i+1].addr>>mem.PageShift == hi-1 {
		hi--
	}
	return lo, hi
}

// Alloc returns a 16-byte aligned chunk of at least size bytes.
func (a *Allocator) Alloc(size uint64) (uint64, error) {
	return a.AllocAligned(size, MinAlign)
}

// AllocAligned returns a chunk of at least size bytes whose address is a
// multiple of align (a power of two, >= 16).
func (a *Allocator) AllocAligned(size, align uint64) (uint64, error) {
	if size == 0 {
		size = MinAlign
	}
	if align < MinAlign || align&(align-1) != 0 {
		return 0, fmt.Errorf("heap: bad alignment %d", align)
	}
	size = mem.AlignUp(size, MinAlign)

	// First try the free list. To scatter allocations, pick uniformly among
	// all fitting spans instead of first-fit.
	if addr, ok := a.takeFromFreeList(size, align); ok {
		a.commit(addr, size)
		return addr, nil
	}

	// Fresh allocation from brk with a small random pre-gap, so consecutive
	// fresh allocations are not byte-adjacent. The gap becomes free space.
	gap := uint64(a.rnd.Intn(4)) * MinAlign
	addr := mem.AlignUp(a.brk+gap, align)
	end := addr + size
	if end > a.limit {
		return 0, fmt.Errorf("heap: out of memory (want %d bytes, brk %#x, limit %#x)", size, a.brk, a.limit)
	}
	if addr > a.brk {
		a.insertFree(span{a.brk, addr - a.brk})
	}
	a.brk = end
	a.commit(addr, size)
	return addr, nil
}

func (a *Allocator) takeFromFreeList(size, align uint64) (uint64, bool) {
	fits := func(s span) (uint64, bool) {
		start := mem.AlignUp(s.addr, align)
		return start, start+size <= s.addr+s.size
	}
	n := 0
	for _, s := range a.free {
		if _, ok := fits(s); ok {
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	k := a.rnd.Intn(n)
	for i, s := range a.free {
		start, ok := fits(s)
		if !ok {
			continue
		}
		if k > 0 {
			k--
			continue
		}
		a.free = slices.Delete(a.free, i, i+1)
		if start > s.addr {
			a.insertFree(span{s.addr, start - s.addr})
		}
		if rest := (s.addr + s.size) - (start + size); rest > 0 {
			a.insertFree(span{start + size, rest})
		}
		return start, true
	}
	panic("heap: free-list fit vanished")
}

func (a *Allocator) insertFree(s span) {
	if s.size == 0 {
		return
	}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr >= s.addr })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	// Coalesce with neighbors.
	if i+1 < len(a.free) && a.free[i].addr+a.free[i].size == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].addr+a.free[i-1].size == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// commit records the allocation and maps any pages it newly touches.
func (a *Allocator) commit(addr, size uint64) {
	i, _ := a.find(addr)
	a.allocs = slices.Insert(a.allocs, i, span{addr, size})
	a.liveBytes += size
	a.totalAlloc += size
	a.numAllocs++
	if lo, hi := a.exclusive(i); lo < hi {
		// Fresh pages: map them RW. Map cannot fail here because no other
		// live allocation touches them and the region is exclusive.
		if err := a.space.Map(lo<<mem.PageShift, (hi-lo)<<mem.PageShift, mem.PermRW); err != nil {
			panic(fmt.Sprintf("heap: internal map failure: %v", err))
		}
		a.livePages += int(hi - lo)
	}
}

// Free releases the chunk at addr. Freeing an unknown address is an error
// (the simulated program is supposed to be memory-safe; attacker corruption
// happens through the attack API, not through Free).
func (a *Allocator) Free(addr uint64) error {
	i, ok := a.find(addr)
	if !ok {
		return fmt.Errorf("heap: free of unknown chunk %#x", addr)
	}
	size := a.allocs[i].size
	if lo, hi := a.exclusive(i); lo < hi {
		if err := a.space.Unmap(lo<<mem.PageShift, (hi-lo)<<mem.PageShift); err != nil {
			panic(fmt.Sprintf("heap: internal unmap failure: %v", err))
		}
		a.livePages -= int(hi - lo)
	}
	a.allocs = slices.Delete(a.allocs, i, i+1)
	a.liveBytes -= size
	a.numFrees++
	a.insertFree(span{addr, size})
	return nil
}

// FreeAll releases every chunk in addrs in one sweep of the live list. It
// leaves the allocator and its space as calling Free on each chunk in turn
// would, in any order: the same live allocations, free spans, counters,
// mapped pages, permissions and RSS (the space's Gen may differ, since
// adjacent pages go in one Unmap). It draws no randomness. An unknown or
// repeated address is an error, reported before anything is freed.
func (a *Allocator) FreeAll(addrs []uint64) error {
	dead := make([]bool, len(a.allocs))
	for _, addr := range addrs {
		i, ok := a.find(addr)
		if !ok || dead[i] {
			return fmt.Errorf("heap: free of unknown chunk %#x", addr)
		}
		dead[i] = true
	}
	// The free spans are the coalesced union of the old ones and the
	// freed chunks, merged in address order. Pages go when no kept
	// allocation touches them: [lo, hi) collects adjacent ones, and
	// keptLast is the last page of the kept allocation below.
	free := make([]span, 0, len(a.free)+len(addrs))
	addFree := func(s span) {
		if n := len(free); n > 0 && free[n-1].addr+free[n-1].size == s.addr {
			free[n-1].size += s.size
			return
		}
		free = append(free, s)
	}
	unmap := func(lo, hi uint64) {
		if lo < hi {
			if err := a.space.Unmap(lo<<mem.PageShift, (hi-lo)<<mem.PageShift); err != nil {
				panic(fmt.Sprintf("heap: internal unmap failure: %v", err))
			}
			a.livePages -= int(hi - lo)
		}
	}
	kept, fi := a.allocs[:0], 0
	var lo, hi, keptLast uint64
	haveKept := false
	for i, s := range a.allocs {
		first, last := s.addr>>mem.PageShift, s.last()
		if !dead[i] {
			unmap(lo, min(hi, first))
			lo, hi = 0, 0
			kept = append(kept, s)
			keptLast, haveKept = last, true
			continue
		}
		for fi < len(a.free) && a.free[fi].addr < s.addr {
			addFree(a.free[fi])
			fi++
		}
		addFree(s)
		a.liveBytes -= s.size
		a.numFrees++
		if haveKept && first <= keptLast {
			first = keptLast + 1
		}
		if first > last {
			continue
		}
		if first > hi {
			unmap(lo, hi)
			lo = first
		}
		hi = max(hi, last+1)
	}
	unmap(lo, hi)
	for _, s := range a.free[fi:] {
		addFree(s)
	}
	a.allocs, a.free = kept, free
	return nil
}

// Protect changes the permission of every page fully covered by the chunk at
// addr. The BTDP constructor calls this with PermNone on page-aligned,
// page-sized chunks to create guard pages.
func (a *Allocator) Protect(addr uint64, perm mem.Perm) error {
	size, ok := a.SizeOf(addr)
	if !ok {
		return fmt.Errorf("heap: protect of unknown chunk %#x", addr)
	}
	start := mem.AlignUp(addr, mem.PageSize)
	end := mem.AlignDown(addr+size, mem.PageSize)
	if end <= start {
		return fmt.Errorf("heap: chunk %#x+%d covers no full page", addr, size)
	}
	return a.space.Protect(start, end-start, perm)
}

// SizeOf returns the size of the live chunk at addr.
func (a *Allocator) SizeOf(addr uint64) (uint64, bool) {
	i, ok := a.find(addr)
	if !ok {
		return 0, false
	}
	return a.allocs[i].size, true
}

// Contains reports whether addr falls inside any live allocation.
func (a *Allocator) Contains(addr uint64) bool {
	i := sort.Search(len(a.allocs), func(i int) bool { return a.allocs[i].addr > addr })
	return i > 0 && addr < a.allocs[i-1].addr+a.allocs[i-1].size
}

// Bounds returns the heap region [base, brk) currently in use.
func (a *Allocator) Bounds() (base, brk uint64) { return a.base, a.brk }

// Stats describes allocator usage.
type Stats struct {
	LiveBytes  uint64
	LivePages  int
	TotalAlloc uint64
	NumAllocs  uint64
	NumFrees   uint64
}

// Stats returns a snapshot of allocator counters.
func (a *Allocator) Stats() Stats {
	return Stats{
		LiveBytes:  a.liveBytes,
		LivePages:  a.livePages,
		TotalAlloc: a.totalAlloc,
		NumAllocs:  a.numAllocs,
		NumFrees:   a.numFrees,
	}
}

// Gauges are the registry handles PublishMetrics sets, resolved once per
// registry by NewGauges and shared by every allocator published into it.
type Gauges struct {
	liveBytes, livePages, totalAlloc, allocs, frees, brk *telemetry.Gauge
}

// NewGauges resolves the allocator gauges in reg. A nil registry yields
// handles whose updates are no-ops.
func NewGauges(reg *telemetry.Registry) *Gauges {
	return &Gauges{
		liveBytes:  reg.Gauge("heap.live_bytes"),
		livePages:  reg.Gauge("heap.live_pages"),
		totalAlloc: reg.Gauge("heap.total_alloc_bytes"),
		allocs:     reg.Gauge("heap.allocs"),
		frees:      reg.Gauge("heap.frees"),
		brk:        reg.Gauge("heap.brk_bytes"),
	}
}

// PublishMetrics exports the allocator counters as gauges (absolute values,
// so repeated publishes are idempotent). The live-page gauge is the
// RSS-attribution companion to the VM's sampled-RSS metrics: guard pages
// created by the BTDP constructor stay live forever by design.
func (a *Allocator) PublishMetrics(g *Gauges) {
	g.liveBytes.Set(float64(a.liveBytes))
	g.livePages.Set(float64(a.livePages))
	g.totalAlloc.Set(float64(a.totalAlloc))
	g.allocs.Set(float64(a.numAllocs))
	g.frees.Set(float64(a.numFrees))
	g.brk.Set(float64(a.brk - a.base))
}
