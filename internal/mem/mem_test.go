package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func mustMap(t *testing.T, s *Space, addr, size uint64, perm Perm) {
	t.Helper()
	if err := s.Map(addr, size, perm); err != nil {
		t.Fatal(err)
	}
}

func TestMapReadWriteRoundTrip(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, 2*PageSize, PermRW)
	data := []byte("hello, address space")
	if err := s.Write(0x1100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.Read(0x1100, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestCrossPageAccess(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, 2*PageSize, PermRW)
	addr := uint64(0x1000 + PageSize - 3)
	if err := s.Write64(addr, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Fatalf("cross-page word = %#x", v)
	}
}

func TestLittleEndian(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, PageSize, PermRW)
	if err := s.Write64(0x1000, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 8)
	if err := s.Read(0x1000, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x08 || b[7] != 0x01 {
		t.Fatalf("not little endian: % x", b)
	}
}

func TestUnmappedFault(t *testing.T) {
	s := NewSpace()
	_, err := s.Read64(0xdead000)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want Fault, got %v", err)
	}
	if !f.Unmapped || f.Access != AccessRead {
		t.Fatalf("unexpected fault: %+v", f)
	}
}

func TestPermissionFaults(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, PageSize, PermRead)

	if err := s.Write64(0x1000, 1); err == nil {
		t.Fatal("write to read-only page succeeded")
	}
	if err := s.CheckExec(0x1000); err == nil {
		t.Fatal("exec of non-exec page succeeded")
	}
	if _, err := s.Read64(0x1000); err != nil {
		t.Fatalf("read of readable page failed: %v", err)
	}
}

func TestExecuteOnlyMemory(t *testing.T) {
	// The leakage-resilience property: execute-only text can be fetched
	// but a JIT-ROP style read of it faults.
	s := NewSpace()
	mustMap(t, s, 0x400000, PageSize, PermXOnly)
	if err := s.CheckExec(0x400000); err != nil {
		t.Fatalf("fetch from execute-only page failed: %v", err)
	}
	_, err := s.Read64(0x400000)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("read of execute-only page did not fault: %v", err)
	}
	if f.Unmapped {
		t.Fatal("fault should be a permission violation, not unmapped")
	}
}

func TestGuardPageFaultsOnEverything(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x7000, PageSize, PermNone)
	if _, err := s.Read64(0x7000); err == nil {
		t.Fatal("guard page read succeeded")
	}
	if err := s.Write64(0x7100, 0); err == nil {
		t.Fatal("guard page write succeeded")
	}
	if err := s.CheckExec(0x7200); err == nil {
		t.Fatal("guard page exec succeeded")
	}
}

func TestProtectRevokesAccess(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, PageSize, PermRW)
	if err := s.Write64(0x1000, 42); err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(0x1000, PageSize, PermNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read64(0x1000); err == nil {
		t.Fatal("read after protect(None) succeeded")
	}
	// The page's bytes still hold the value.
	data, perm, _, ok := s.Slab(0x1000)
	if !ok || perm != PermNone || le64(data[:8]) != 42 {
		t.Fatalf("Slab = %v, %v, %v", ok, perm, le64(data[:8]))
	}
}

func TestDoubleMapRejected(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, 2*PageSize, PermRW)
	if err := s.Map(0x2000, PageSize, PermRW); err == nil {
		t.Fatal("overlapping map succeeded")
	}
}

func TestUnalignedMapRejected(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1001, PageSize, PermRW); err == nil {
		t.Fatal("unaligned map succeeded")
	}
	if err := s.Map(0x1000, 100, PermRW); err == nil {
		t.Fatal("unaligned size succeeded")
	}
}

func TestUnmapFreesAndFaults(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, PageSize, PermRW)
	if err := s.Unmap(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read64(0x1000); err == nil {
		t.Fatal("read of unmapped page succeeded")
	}
	if err := s.Unmap(0x1000, PageSize); err == nil {
		t.Fatal("double unmap succeeded")
	}
}

func TestRSSAccounting(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, 4*PageSize, PermRW)
	if s.RSSBytes() != 4*PageSize || s.MaxRSSBytes() != 4*PageSize {
		t.Fatalf("rss=%d max=%d", s.RSSBytes(), s.MaxRSSBytes())
	}
	if err := s.Unmap(0x1000, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if s.RSSBytes() != 2*PageSize {
		t.Fatalf("rss after unmap = %d", s.RSSBytes())
	}
	// maxrss is a high-water mark: it must not decrease.
	if s.MaxRSSBytes() != 4*PageSize {
		t.Fatalf("maxrss dropped to %d", s.MaxRSSBytes())
	}
	mustMap(t, s, 0x100000, 8*PageSize, PermRW)
	if s.MaxRSSBytes() != 10*PageSize {
		t.Fatalf("maxrss = %d, want 10 pages", s.MaxRSSBytes())
	}
}

func TestRegionsCoalesce(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, 2*PageSize, PermRW)
	mustMap(t, s, 0x3000, PageSize, PermXOnly)
	mustMap(t, s, 0x4000, PageSize, PermXOnly)
	mustMap(t, s, 0x6000, PageSize, PermRW)
	r := s.Regions()
	want := []Region{
		{0x1000, 2 * PageSize, PermRW},
		{0x3000, 2 * PageSize, PermXOnly},
		{0x6000, PageSize, PermRW},
	}
	if len(r) != len(want) {
		t.Fatalf("regions = %+v", r)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("region %d = %+v, want %+v", i, r[i], want[i])
		}
	}
}

func TestPermString(t *testing.T) {
	cases := map[Perm]string{
		PermNone:  "---",
		PermRead:  "r--",
		PermRW:    "rw-",
		PermRX:    "r-x",
		PermXOnly: "--x",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(p), p.String(), want)
		}
	}
}

func TestAlign(t *testing.T) {
	if AlignUp(1, PageSize) != PageSize || AlignUp(PageSize, PageSize) != PageSize {
		t.Fatal("AlignUp wrong")
	}
	if AlignDown(PageSize+1, PageSize) != PageSize || AlignDown(0, PageSize) != 0 {
		t.Fatal("AlignDown wrong")
	}
}

func TestReadWriteQuick(t *testing.T) {
	// Property: any word written inside a mapped RW window reads back.
	s := NewSpace()
	const base, size = 0x10000, 16 * PageSize
	mustMap(t, s, base, size, PermRW)
	err := quick.Check(func(off uint32, v uint64) bool {
		addr := base + uint64(off)%(size-8)
		if err := s.Write64(addr, v); err != nil {
			return false
		}
		got, err := s.Read64(addr)
		return err == nil && got == v
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartialFaultStopsAccess(t *testing.T) {
	// A write that starts on a writable page and runs into an unmapped one
	// must fault rather than silently truncate.
	s := NewSpace()
	mustMap(t, s, 0x1000, PageSize, PermRW)
	buf := make([]byte, 16)
	if err := s.Write(0x1000+PageSize-8, buf); err == nil {
		t.Fatal("write spilling into unmapped page succeeded")
	}
}

// TestReleasedPagesComeBackClean recycles a fork's dirtied pages through
// Release and checks that later forks reusing them still read exactly what
// a fresh space would: zeros on pages nobody wrote, the parent's bytes on
// pages copied from it, and never the released fork's data.
func TestReleasedPagesComeBackClean(t *testing.T) {
	parent := NewSpace()
	mustMap(t, parent, 0x10000, 4*PageSize, PermRW)
	if err := parent.Write64(0x10000, 0x1111); err != nil {
		t.Fatal(err)
	}
	parent.Freeze()
	junk := make([]byte, PageSize)
	for i := range junk {
		junk[i] = 0xee
	}
	for round := 0; round < 4; round++ {
		f := parent.Fork()
		for _, addr := range []uint64{0x10000, 0x11000, 0x12000} {
			if v, err := f.Read64(addr + 8); err != nil || v != 0 {
				t.Fatalf("round %d: %#x+8 reads %#x, %v; want 0", round, addr, v, err)
			}
		}
		if v, err := f.Read64(0x10000); err != nil || v != 0x1111 {
			t.Fatalf("round %d: parent word reads %#x, %v", round, v, err)
		}
		if _, _, owned, _ := f.Slab(0x11000); owned {
			t.Fatalf("round %d: an unwritten page's slab is owned", round)
		}
		// A first store materializes the page: the rest of it reads zero.
		if err := f.Write64(0x13000, 1); err != nil {
			t.Fatal(err)
		}
		if v, err := f.Read64(0x13008); err != nil || v != 0 {
			t.Fatalf("round %d: a materialized page reads %#x, %v beside the store", round, v, err)
		}
		for _, addr := range []uint64{0x10000, 0x11000, 0x12000, 0x13000} {
			if err := f.Write(addr, junk); err != nil {
				t.Fatal(err)
			}
		}
		mustMap(t, f, 0x20000, PageSize, PermRW)
		if err := f.Write(0x20000, junk); err != nil {
			t.Fatal(err)
		}
		f.Release()
		if _, _, _, mapped := f.Slab(0x10000); mapped || f.RSSBytes() != 0 {
			t.Fatal("a released space still maps pages")
		}
	}
	if v, err := parent.Read64(0x10008); err != nil || v != 0 {
		t.Fatalf("the frozen parent reads %#x, %v after its forks wrote", v, err)
	}
}

// TestUnmappedPagesComeBackClean unmaps written pages, whose frames Unmap
// recycles, and requires every page materialized afterwards — in the same
// space or in a sibling fork — to read all zero, and bytes shared with the
// frozen parent to survive a fork's Unmap.
func TestUnmappedPagesComeBackClean(t *testing.T) {
	junk := make([]byte, PageSize)
	for i := range junk {
		junk[i] = 0xee
	}
	zero := make([]byte, PageSize)
	readsZero := func(s *Space, addr uint64) bool {
		buf := make([]byte, PageSize)
		if err := s.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
		return string(buf) == string(zero)
	}

	s := NewSpace()
	mustMap(t, s, 0x30000, 2*PageSize, PermRW)
	if err := s.Write(0x30000, junk); err != nil {
		t.Fatal(err)
	}
	if err := s.Unmap(0x30000, PageSize); err != nil {
		t.Fatal(err)
	}
	mustMap(t, s, 0x30000, PageSize, PermRW)
	if !readsZero(s, 0x30000) {
		t.Fatal("a remapped page reads its unmapped predecessor's bytes")
	}
	for _, addr := range []uint64{0x30000, 0x31000} {
		if err := s.Write64(addr+8, 1); err != nil { // materialize
			t.Fatal(err)
		}
		if v, _ := s.Read64(addr + 16); v != 0 {
			t.Fatalf("a page materialized at %#x after an Unmap reads %#x beside the store", addr, v)
		}
	}

	parent := NewSpace()
	mustMap(t, parent, 0x10000, PageSize, PermRW)
	if err := parent.Write64(0x10000, 0x1111); err != nil {
		t.Fatal(err)
	}
	parent.Freeze()
	for round := 0; round < 4; round++ {
		f := parent.Fork()
		mustMap(t, f, 0x20000, 2*PageSize, PermRW)
		if !readsZero(f, 0x20000) || !readsZero(f, 0x21000) {
			t.Fatalf("round %d: a fresh mapping reads an earlier fork's bytes", round)
		}
		if err := f.Write(0x20000, junk); err != nil {
			t.Fatal(err)
		}
		if err := f.Write(0x21000, junk[:8]); err != nil {
			t.Fatal(err)
		}
		if err := f.Unmap(0x20000, 2*PageSize); err != nil {
			t.Fatal(err)
		}
		if err := f.Unmap(0x10000, PageSize); err != nil { // shared with the parent
			t.Fatal(err)
		}
		f.Release()
	}
	if v, err := parent.Read64(0x10000); err != nil || v != 0x1111 {
		t.Fatalf("the frozen parent reads %#x, %v after a fork unmapped its page", v, err)
	}
}
