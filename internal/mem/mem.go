// Package mem implements the simulated 64-bit address space that the whole
// system runs on: the loader maps text/data segments into it, the runtime
// allocates heap and stack from it, the VM fetches and executes code out of
// it, and the attacker leaks and corrupts it.
//
// The model is a sparse map of 4 KiB pages, each with independent R/W/X
// permissions. Two permission combinations matter for the paper:
//
//   - execute-only text (X without R), the leakage-resilience prerequisite
//     R2C assumes (Section 3): instruction fetch succeeds, data reads fault;
//   - unreadable guard pages (no permissions at all), which back BTDPs
//     (Section 5.2): any access faults immediately, which is the reactive
//     booby-trap signal.
//
// All multi-byte accesses are little-endian, matching x86_64.
package mem

import (
	"fmt"
	"slices"
	"sync"
)

// Page geometry mirrors x86_64 4 KiB pages.
const (
	PageSize  = 4096
	PageShift = 12
	PageMask  = PageSize - 1
)

// Perm is a page permission bit set.
type Perm uint8

const (
	// PermRead allows data loads.
	PermRead Perm = 1 << iota
	// PermWrite allows data stores.
	PermWrite
	// PermExec allows instruction fetch.
	PermExec

	// PermNone marks a mapped but fully inaccessible page (a guard page).
	PermNone Perm = 0
	// PermRW is the usual data permission.
	PermRW = PermRead | PermWrite
	// PermRX is conventional text.
	PermRX = PermRead | PermExec
	// PermXOnly is execute-only text: fetchable, not readable. This is the
	// execute-only memory R2C's threat model assumes for the text section.
	PermXOnly = PermExec
)

// String renders the permission in the familiar rwx form.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// AccessKind says what kind of access caused a fault.
type AccessKind int

const (
	// AccessRead is a data load.
	AccessRead AccessKind = iota
	// AccessWrite is a data store.
	AccessWrite
	// AccessExec is an instruction fetch.
	AccessExec
)

func (a AccessKind) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "unknown"
}

// Fault is the simulated SIGSEGV. The runtime's fault handler inspects it to
// decide whether a booby trap fired (Section 4.2: "dereferencing a BTDP
// causes an immediate fault, giving defenders a way to respond").
type Fault struct {
	Addr     uint64
	Access   AccessKind
	Unmapped bool // true: no page; false: permission violation
	Perm     Perm // permissions of the page, when mapped
}

// Error implements the error interface.
func (f *Fault) Error() string {
	if f.Unmapped {
		return fmt.Sprintf("segfault: %s of unmapped address %#x", f.Access, f.Addr)
	}
	return fmt.Sprintf("segfault: %s of %#x violates page permission %s", f.Access, f.Addr, f.Perm)
}

// The page table is a sorted directory of leaves, each holding leafPages
// consecutive page entries. The two levels exist for Fork: a fork copies
// only the directory and shares every leaf and every page's bytes with its
// frozen parent, copying a leaf the first time it maps, unmaps or
// reprotects a page in it and a page's bytes the first time it writes them.
const (
	leafShift = 6
	leafPages = 1 << leafShift
)

type page struct {
	data   *[PageSize]byte // nil until first written; reads see zeroPage
	perm   Perm
	mapped bool
	owned  bool // data belongs to this Space alone, not to a frozen parent
}

type leaf [leafPages]page

type dirEntry struct {
	num   uint64 // page number >> leafShift
	leaf  *leaf
	owned bool // leaf belongs to this Space alone, not to a frozen parent
}

// zeroPage backs every read of a mapped page nobody has written yet. It is
// shared by all spaces and never written.
var zeroPage [PageSize]byte

// pagePool and leafPool recycle the page bytes and leaves of released
// spaces (see Release), so a loop that forks a snapshot per request reuses
// the previous requests' private pages instead of allocating new ones.
var (
	pagePool = sync.Pool{New: func() any { return new([PageSize]byte) }}
	leafPool = sync.Pool{New: func() any { return new(leaf) }}
)

// Space is a sparse simulated address space.
type Space struct {
	dir []dirEntry // sorted by num

	// frozen marks a Fork parent: every mutation panics, so a fork can
	// share its leaves and page bytes without copying them.
	frozen bool

	// gen counts page-byte replacements (a first write materializing a
	// page, a fork copying a shared one, or Unmap recycling a page's
	// bytes) and permission changes (Protect). A cached Slab of a page
	// whose bytes or permission changed is stale; the VM compares gen to
	// decide when its software TLB must re-read its slabs.
	gen uint64

	// RSS accounting (Section 6.2.5 reproduces both the maxrss and the
	// sampled-RSS methodology). A page counts toward RSS once mapped.
	rssPages    int
	maxRSSPages int
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{}
}

// Freeze makes s the read-only parent of later Forks. It drops leaves with
// no mapped page and marks every leaf and page shared, so the first
// mutation in a fork copies instead of writing through. Any later mutation
// of s itself panics.
func (s *Space) Freeze() {
	dir := s.dir[:0]
	for _, e := range s.dir {
		live := false
		for i := range e.leaf {
			e.leaf[i].owned = false
			live = live || e.leaf[i].mapped
		}
		if live {
			e.owned = false
			dir = append(dir, e)
		}
	}
	s.dir = dir
	s.frozen = true
}

// Fork returns a copy-on-write child of the frozen space s: the same pages,
// permissions, bytes and RSS counters, sharing s's leaves and page bytes
// until the child changes them. Forks of one space may run on separate
// goroutines. Fork panics unless s is frozen.
func (s *Space) Fork() *Space {
	if !s.frozen {
		panic("mem: Fork of a space that is not frozen")
	}
	return &Space{
		dir:         append(make([]dirEntry, 0, len(s.dir)+4), s.dir...),
		rssPages:    s.rssPages,
		maxRSSPages: s.maxRSSPages,
	}
}

// Release returns the leaves and page bytes only s holds to a pool that
// later spaces draw from, and leaves s empty. Call it when nothing will use
// s again: no machine that ran on it and no slab taken from it, since their
// bytes now belong to some other space. A frozen space is left as is.
func (s *Space) Release() {
	if s.frozen {
		return
	}
	for _, e := range s.dir {
		if !e.owned {
			continue
		}
		for i := range e.leaf {
			if p := &e.leaf[i]; p.owned && p.data != nil {
				pagePool.Put(p.data)
			}
		}
		leafPool.Put(e.leaf)
	}
	*s = Space{}
}

// Gen returns the count of page-byte replacements and permission changes
// (see Space.gen).
func (s *Space) Gen() uint64 { return s.gen }

// search returns the directory index of leaf number num, or where to
// insert it.
func (s *Space) search(num uint64) (int, bool) {
	lo, hi := 0, len(s.dir)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.dir[m].num < num {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.dir) && s.dir[lo].num == num
}

// lookup returns the entry of mapped page pn for reading, or nil. The entry
// may live in a shared leaf: callers must not modify it.
func (s *Space) lookup(pn uint64) *page {
	i, ok := s.search(pn >> leafShift)
	if !ok {
		return nil
	}
	p := &s.dir[i].leaf[pn&(leafPages-1)]
	if !p.mapped {
		return nil
	}
	return p
}

// entry returns page pn's entry in a leaf this space owns, copying a
// shared leaf or creating a missing one first. The page may be unmapped.
func (s *Space) entry(pn uint64) *page {
	if s.frozen {
		panic("mem: mutation of a frozen space")
	}
	i, ok := s.search(pn >> leafShift)
	if !ok {
		l := leafPool.Get().(*leaf)
		*l = leaf{}
		s.dir = slices.Insert(s.dir, i, dirEntry{num: pn >> leafShift, leaf: l, owned: true})
	} else if e := &s.dir[i]; !e.owned {
		l := leafPool.Get().(*leaf)
		*l = *e.leaf
		e.leaf, e.owned = l, true
	}
	return &s.dir[i].leaf[pn&(leafPages-1)]
}

// own returns the bytes of mapped page pn for writing, materializing an
// unwritten page and copying one shared with a frozen parent.
func (s *Space) own(pn uint64) *[PageSize]byte {
	p := s.entry(pn)
	if !p.owned || p.data == nil {
		data := pagePool.Get().(*[PageSize]byte)
		if p.data != nil {
			*data = *p.data
		} else {
			*data = [PageSize]byte{}
		}
		p.data, p.owned = data, true
		s.gen++
	}
	return p.data
}

// bytes returns a mapped page's contents for reading.
func (p *page) bytes() *[PageSize]byte {
	if p.data == nil {
		return &zeroPage
	}
	return p.data
}

// Map creates pages covering [addr, addr+size) with the given permissions.
// addr and size must be page-aligned. Mapping an already-mapped page is an
// error: segment placement bugs should fail loudly, not silently overlap.
func (s *Space) Map(addr, size uint64, perm Perm) error {
	if addr&PageMask != 0 || size&PageMask != 0 {
		return fmt.Errorf("mem: unaligned map addr=%#x size=%#x", addr, size)
	}
	first, n := addr>>PageShift, size>>PageShift
	for i := uint64(0); i < n; i++ {
		if s.lookup(first+i) != nil {
			return fmt.Errorf("mem: page %#x already mapped", (first+i)<<PageShift)
		}
	}
	for i := uint64(0); i < n; i++ {
		*s.entry(first + i) = page{perm: perm, mapped: true, owned: true}
	}
	s.rssPages += int(n)
	if s.rssPages > s.maxRSSPages {
		s.maxRSSPages = s.rssPages
	}
	return nil
}

// Unmap removes the pages covering [addr, addr+size). Bytes only s owns go
// back to the page pool, as Release hands them on, so a program that frees
// heap pages request after request reuses them instead of leaving them to
// the garbage collector.
//
// Recycling is safe because no slab of an unmapped page outlives the call.
// Unmap's only callers are the heap allocator's Free, reached from the
// loader before Freeze (no machine exists yet) and from the VM's SysFree;
// the VM flushes its software TLB after every syscall, before it touches
// memory again. Unmap also bumps Gen, so a holder that re-reads its slabs
// when Gen moves (as the VM does before each run) drops them too.
func (s *Space) Unmap(addr, size uint64) error {
	if addr&PageMask != 0 || size&PageMask != 0 {
		return fmt.Errorf("mem: unaligned unmap addr=%#x size=%#x", addr, size)
	}
	first, n := addr>>PageShift, size>>PageShift
	for i := uint64(0); i < n; i++ {
		if s.lookup(first+i) == nil {
			return fmt.Errorf("mem: unmap of unmapped page %#x", (first+i)<<PageShift)
		}
	}
	for i := uint64(0); i < n; i++ {
		p := s.entry(first + i)
		if p.owned && p.data != nil {
			pagePool.Put(p.data)
		}
		*p = page{}
	}
	s.rssPages -= int(n)
	s.gen++
	return nil
}

// Protect changes the permissions of the pages covering [addr, addr+size).
// This is the simulated mprotect; the BTDP constructor uses it to revoke
// read access from guard pages (Section 5.2).
func (s *Space) Protect(addr, size uint64, perm Perm) error {
	if addr&PageMask != 0 || size&PageMask != 0 {
		return fmt.Errorf("mem: unaligned protect addr=%#x size=%#x", addr, size)
	}
	first, n := addr>>PageShift, size>>PageShift
	for i := uint64(0); i < n; i++ {
		if s.lookup(first+i) == nil {
			return fmt.Errorf("mem: protect of unmapped page %#x", (first+i)<<PageShift)
		}
	}
	for i := uint64(0); i < n; i++ {
		s.entry(first + i).perm = perm
	}
	s.gen++
	return nil
}

func (s *Space) check(addr uint64, access AccessKind) (*page, error) {
	p := s.lookup(addr >> PageShift)
	if p == nil {
		return nil, &Fault{Addr: addr, Access: access, Unmapped: true}
	}
	var need Perm
	switch access {
	case AccessRead:
		need = PermRead
	case AccessWrite:
		need = PermWrite
	case AccessExec:
		need = PermExec
	}
	if p.perm&need == 0 {
		return nil, &Fault{Addr: addr, Access: access, Perm: p.perm}
	}
	return p, nil
}

// Read copies len(buf) bytes starting at addr into buf, honoring page
// permissions. A fault aborts the read; buf contents are then unspecified.
func (s *Space) Read(addr uint64, buf []byte) error {
	return s.access(addr, buf, AccessRead)
}

// Write copies buf into memory at addr, honoring page permissions.
func (s *Space) Write(addr uint64, buf []byte) error {
	return s.access(addr, buf, AccessWrite)
}

func (s *Space) access(addr uint64, buf []byte, kind AccessKind) error {
	for done := 0; done < len(buf); {
		p, err := s.check(addr, kind)
		if err != nil {
			return err
		}
		off := int(addr & PageMask)
		n := PageSize - off
		if rem := len(buf) - done; n > rem {
			n = rem
		}
		if kind == AccessWrite {
			copy(s.own(addr >> PageShift)[off:off+n], buf[done:done+n])
		} else {
			copy(buf[done:done+n], p.bytes()[off:off+n])
		}
		done += n
		addr += uint64(n)
	}
	return nil
}

// Read64 loads a little-endian 64-bit word.
func (s *Space) Read64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := s.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return le64(b[:]), nil
}

// Write64 stores a little-endian 64-bit word.
func (s *Space) Write64(addr, v uint64) error {
	var b [8]byte
	put64(b[:], v)
	return s.Write(addr, b[:])
}

// CheckExec verifies that addr is fetchable (mapped with PermExec).
func (s *Space) CheckExec(addr uint64) error {
	_, err := s.check(addr, AccessExec)
	return err
}

// Slab exposes the backing bytes and permission of the page containing
// addr, for fast word access by the VM (which performs its own permission
// checks and caches the slab in a software TLB). The returned array aliases
// page storage. Unless owned is true it is shared — the zero page or a
// frozen parent's bytes — and must not be written: OwnSlab returns the
// writable bytes. Callers must invalidate cached slabs after Unmap/Protect,
// and re-read them when Gen changes.
func (s *Space) Slab(addr uint64) (data *[PageSize]byte, perm Perm, owned, ok bool) {
	p := s.lookup(addr >> PageShift)
	if p == nil {
		return nil, 0, false, false
	}
	return p.bytes(), p.perm, p.owned && p.data != nil, true
}

// OwnSlab returns the writable bytes of the mapped page containing addr,
// copying them into s first when they are shared (see Slab). It bumps Gen
// only when it copies.
func (s *Space) OwnSlab(addr uint64) *[PageSize]byte {
	return s.own(addr >> PageShift)
}

// RSSBytes returns the current resident set size in bytes.
func (s *Space) RSSBytes() uint64 { return uint64(s.rssPages) * PageSize }

// MaxRSSBytes returns the peak resident set size in bytes — the simulated
// maxrss rusage metric the paper's SPEC memory methodology reads (Section
// 6.2.5).
func (s *Space) MaxRSSBytes() uint64 { return uint64(s.maxRSSPages) * PageSize }

// Region describes one contiguous run of identically-permissioned pages.
type Region struct {
	Addr uint64
	Size uint64
	Perm Perm
}

// Regions returns the mapped regions sorted by address, coalescing adjacent
// pages with identical permissions — the simulated /proc/self/maps.
func (s *Space) Regions() []Region {
	var out []Region
	for _, e := range s.dir {
		for i := range e.leaf {
			p := &e.leaf[i]
			if !p.mapped {
				continue
			}
			addr := (e.num<<leafShift | uint64(i)) << PageShift
			if len(out) > 0 {
				last := &out[len(out)-1]
				if last.Addr+last.Size == addr && last.Perm == p.perm {
					last.Size += PageSize
					continue
				}
			}
			out = append(out, Region{Addr: addr, Size: PageSize, Perm: p.perm})
		}
	}
	return out
}

// AlignUp rounds v up to the next multiple of align (a power of two).
func AlignUp(v, align uint64) uint64 {
	return (v + align - 1) &^ (align - 1)
}

// AlignDown rounds v down to a multiple of align (a power of two).
func AlignDown(v, align uint64) uint64 {
	return v &^ (align - 1)
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func put64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
