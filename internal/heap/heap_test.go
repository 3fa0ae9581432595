package heap

import (
	"slices"
	"testing"
	"testing/quick"

	"r2c/internal/mem"
	"r2c/internal/rng"
)

const (
	heapBase  = 0x20000000
	heapLimit = 0x30000000
)

func newHeap(t *testing.T, seed uint64) (*mem.Space, *Allocator) {
	t.Helper()
	s := mem.NewSpace()
	a, err := New(s, heapBase, heapLimit, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

func TestAllocReturnsUsableMemory(t *testing.T) {
	s, a := newHeap(t, 1)
	addr, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if addr < heapBase || addr >= heapLimit {
		t.Fatalf("allocation %#x outside heap range", addr)
	}
	if addr%MinAlign != 0 {
		t.Fatalf("allocation %#x not 16-byte aligned", addr)
	}
	if err := s.Write64(addr, 0xdeadbeef); err != nil {
		t.Fatalf("write to allocation failed: %v", err)
	}
	v, err := s.Read64(addr)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("read back = %#x, %v", v, err)
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	_, a := newHeap(t, 2)
	type chunk struct{ addr, size uint64 }
	var chunks []chunk
	for i := 0; i < 200; i++ {
		size := uint64(8 + i*7%300)
		addr, err := a.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, chunk{addr, mem.AlignUp(size, MinAlign)})
	}
	for i := range chunks {
		for j := i + 1; j < len(chunks); j++ {
			a, b := chunks[i], chunks[j]
			if a.addr < b.addr+b.size && b.addr < a.addr+a.size {
				t.Fatalf("chunks overlap: %#x+%d and %#x+%d", a.addr, a.size, b.addr, b.size)
			}
		}
	}
}

func TestFreeAndReuse(t *testing.T) {
	_, a := newHeap(t, 3)
	addrs := make([]uint64, 50)
	for i := range addrs {
		var err error
		addrs[i], err = a.Alloc(128)
		if err != nil {
			t.Fatal(err)
		}
	}
	brkBefore := func() uint64 { _, b := a.Bounds(); return b }()
	for _, ad := range addrs {
		if err := a.Free(ad); err != nil {
			t.Fatal(err)
		}
	}
	// New allocations should come from the free list, not extend brk much.
	for i := 0; i < 50; i++ {
		if _, err := a.Alloc(128); err != nil {
			t.Fatal(err)
		}
	}
	if _, brk := a.Bounds(); brk > brkBefore+mem.PageSize {
		t.Fatalf("free list not reused: brk grew from %#x to %#x", brkBefore, brk)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	_, a := newHeap(t, 4)
	addr, _ := a.Alloc(32)
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(addr); err == nil {
		t.Fatal("double free succeeded")
	}
}

func TestFreeUnmapsExclusivePages(t *testing.T) {
	s, a := newHeap(t, 5)
	addr, err := a.AllocAligned(mem.PageSize, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped(s, addr) {
		t.Fatal("allocation page not mapped")
	}
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	if mapped(s, addr) {
		t.Fatal("page still mapped after freeing its only chunk")
	}
}

// mapped reports whether addr falls on a mapped page of s.
func mapped(s *mem.Space, addr uint64) bool {
	_, _, _, ok := s.Slab(addr)
	return ok
}

func TestSharedPageSurvivesPartialFree(t *testing.T) {
	s, a := newHeap(t, 6)
	x, _ := a.Alloc(32)
	y, _ := a.Alloc(32)
	if x>>mem.PageShift != y>>mem.PageShift {
		t.Skip("allocations landed on different pages for this seed")
	}
	if err := a.Free(x); err != nil {
		t.Fatal(err)
	}
	if !mapped(s, y) {
		t.Fatal("shared page unmapped while second chunk is live")
	}
}

func TestPageAlignedAllocation(t *testing.T) {
	_, a := newHeap(t, 7)
	for i := 0; i < 20; i++ {
		addr, err := a.AllocAligned(mem.PageSize, mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if addr&mem.PageMask != 0 {
			t.Fatalf("AllocAligned returned unaligned %#x", addr)
		}
	}
}

func TestGuardPageWorkflow(t *testing.T) {
	// The BTDP constructor's exact sequence: allocate page-sized page-aligned
	// chunks, free a subset, protect the survivors, verify faults.
	s, a := newHeap(t, 8)
	var pages []uint64
	for i := 0; i < 32; i++ {
		addr, err := a.AllocAligned(mem.PageSize, mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, addr)
	}
	kept := pages[:8]
	for _, p := range pages[8:] {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range kept {
		if err := a.Protect(p, mem.PermNone); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range kept {
		if _, err := s.Read64(p + 0x10); err == nil {
			t.Fatalf("guard page %#x readable", p)
		}
	}
	// A guard chunk is never handed out again while it stays allocated.
	for i := 0; i < 64; i++ {
		addr, err := a.AllocAligned(mem.PageSize, mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range kept {
			if addr == p {
				t.Fatalf("guard page %#x reused", p)
			}
		}
	}
}

func TestProtectRequiresFullPage(t *testing.T) {
	_, a := newHeap(t, 9)
	addr, _ := a.Alloc(64)
	if err := a.Protect(addr, mem.PermNone); err == nil {
		t.Fatal("protect of sub-page chunk succeeded")
	}
}

func TestOutOfMemory(t *testing.T) {
	s := mem.NewSpace()
	a, err := New(s, 0x1000, 0x1000+4*mem.PageSize, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(100 * mem.PageSize); err == nil {
		t.Fatal("oversized allocation succeeded")
	}
}

func TestStats(t *testing.T) {
	_, a := newHeap(t, 10)
	x, _ := a.Alloc(100) // rounds to 112
	_, _ = a.Alloc(16)
	if err := a.Free(x); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.NumAllocs != 2 || st.NumFrees != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LiveBytes != 16 {
		t.Fatalf("live bytes = %d, want 16", st.LiveBytes)
	}
}

func TestContains(t *testing.T) {
	_, a := newHeap(t, 11)
	addr, _ := a.Alloc(64)
	if !a.Contains(addr) || !a.Contains(addr+63) {
		t.Fatal("Contains misses live chunk")
	}
	if a.Contains(addr + 4096) {
		t.Fatal("Contains reports dead address")
	}
}

func TestAllocFreeQuick(t *testing.T) {
	// Property: an arbitrary interleaving of allocs and frees never yields
	// overlapping live chunks and never corrupts previously written data.
	err := quick.Check(func(seed uint64, ops []uint16) bool {
		s := mem.NewSpace()
		a, err := New(s, heapBase, heapLimit, rng.New(seed))
		if err != nil {
			return false
		}
		type chunk struct{ addr, size, tag uint64 }
		var live []chunk
		tag := uint64(1)
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 { // free one
				i := int(op) % len(live)
				if err := a.Free(live[i].addr); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				size := uint64(op%500) + 8
				addr, err := a.Alloc(size)
				if err != nil {
					return false
				}
				if err := s.Write64(addr, tag); err != nil {
					return false
				}
				live = append(live, chunk{addr, size, tag})
				tag++
			}
		}
		for _, c := range live {
			v, err := s.Read64(c.addr)
			if err != nil || v != c.tag {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllocFreeLoopReturnsFrames is the steady state of a request that
// mallocs, writes and frees page-sized buffers: once warm, each cycle
// takes its frames from the pool its previous Free returned them to.
func TestAllocFreeLoopReturnsFrames(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// A request's heap: an allocator over a fork of a frozen space.
	parent, pa := newHeap(t, 11)
	if _, err := pa.Alloc(64); err != nil { // a live page the fork shares
		t.Fatal(err)
	}
	parent.Freeze()
	s := parent.Fork()
	a := pa.Fork(s)
	cycle := func() {
		addr, err := a.AllocAligned(3*mem.PageSize, mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for off := uint64(0); off < 3*mem.PageSize; off += mem.PageSize {
			if err := s.Write64(addr+off, off+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // settle the free list's shape
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n >= 1 {
		t.Fatalf("an alloc/write/free cycle allocates %.1f times: freed frames are not recycled", n)
	}
}

// TestFreeAllMatchesSequentialFree holds FreeAll to its contract on random
// heaps: small chunks that share pages, page-aligned pages (some of them
// guard pages), multi-page chunks and earlier frees that leave free spans
// to coalesce with. Freeing a random subset in one call must leave exactly
// the state that freeing it chunk by chunk leaves, and draw no randomness.
func TestFreeAllMatchesSequentialFree(t *testing.T) {
	// build replays one heap history from seed, so two calls give two
	// identical heaps; it returns the live chunks in allocation order.
	build := func(seed uint64) (*mem.Space, *Allocator, []uint64) {
		s, a := newHeap(t, seed)
		script := rng.New(seed ^ 0x5eed)
		var live []uint64
		for range 40 + script.Intn(200) {
			var addr uint64
			var err error
			switch k := script.Intn(10); {
			case k < 5:
				addr, err = a.Alloc(uint64(8 + script.Intn(300)))
			case k < 8:
				addr, err = a.AllocAligned(mem.PageSize, mem.PageSize)
				if err == nil && script.Intn(3) == 0 {
					err = a.Protect(addr, mem.PermNone)
				}
			case k < 9:
				addr, err = a.Alloc(uint64(1+script.Intn(3)) * mem.PageSize)
			default:
				if len(live) > 0 {
					i := script.Intn(len(live))
					err = a.Free(live[i])
					live = append(live[:i], live[i+1:]...)
				}
				if err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, addr)
		}
		return s, a, live
	}
	for seed := uint64(1); seed <= 300; seed++ {
		ws, want, live := build(seed)
		gs, got, _ := build(seed)
		pick := rng.New(seed)
		var addrs []uint64
		for _, addr := range live {
			if pick.Intn(4) != 0 {
				addrs = append(addrs, addr)
			}
		}
		pick.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		for _, addr := range addrs {
			if err := want.Free(addr); err != nil {
				t.Fatal(err)
			}
		}
		if err := got.FreeAll(addrs); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.allocs, want.allocs) || !slices.Equal(got.free, want.free) {
			t.Fatalf("seed %d: spans differ\nallocs %v\nwant   %v\nfree %v\nwant %v", seed, got.allocs, want.allocs, got.free, want.free)
		}
		if got.Stats() != want.Stats() || got.brk != want.brk {
			t.Fatalf("seed %d: stats %+v brk %#x, want %+v brk %#x", seed, got.Stats(), got.brk, want.Stats(), want.brk)
		}
		if !slices.Equal(gs.Regions(), ws.Regions()) || gs.RSSBytes() != ws.RSSBytes() || gs.MaxRSSBytes() != ws.MaxRSSBytes() {
			t.Fatalf("seed %d: space differs\nregions %v rss %d/%d\nwant    %v rss %d/%d", seed,
				gs.Regions(), gs.RSSBytes(), gs.MaxRSSBytes(), ws.Regions(), ws.RSSBytes(), ws.MaxRSSBytes())
		}
		if g, w := got.rnd.Uint64(), want.rnd.Uint64(); g != w {
			t.Fatalf("seed %d: RNG state differs after the frees", seed)
		}
	}
}

// TestFreeAllRejectsBadSets: an unknown or repeated address fails the
// call before any chunk is freed.
func TestFreeAllRejectsBadSets(t *testing.T) {
	_, a := newHeap(t, 12)
	x, _ := a.Alloc(64)
	y, _ := a.Alloc(64)
	before := a.Stats()
	for _, addrs := range [][]uint64{{x, y + 16}, {x, y, x}} {
		if err := a.FreeAll(addrs); err == nil {
			t.Fatalf("FreeAll(%#x) succeeded", addrs)
		}
		if a.Stats() != before || len(a.allocs) != 2 {
			t.Fatalf("FreeAll(%#x) changed the heap: %+v", addrs, a.Stats())
		}
	}
}
