package rt

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/heap"
	"r2c/internal/image"
	"r2c/internal/mem"
	"r2c/internal/tir"
)

// snapshotImage links a small module with initialized data under full R2C,
// so its snapshot holds text, data, stack, heap and BTDP guard pages.
func snapshotImage(t *testing.T) *image.Image {
	t.Helper()
	mb := tir.NewModule("snaptest")
	mb.AddGlobal("g", 32, 1, 2, 3, 4)
	main := mb.NewFunc("main", 0)
	main.Output(main.Const(1))
	main.RetVoid()
	mb.SetEntry("main")
	prog, err := codegen.Compile(mb.MustBuild(), defense.R2CFull(), 3)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Link(prog, 8)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// procState is everything a write path could leak between forks: the
// region map, every mapped page's permission and content hash, and the
// heap's counters and placement state.
type procState struct {
	Regions []mem.Region
	Perms   map[uint64]mem.Perm
	Hashes  map[uint64][32]byte
	Heap    heap.Stats
	Brk     uint64
	RSS     uint64
	MaxRSS  uint64
}

func stateOf(t *testing.T, p *Process) procState {
	t.Helper()
	st := procState{
		Regions: p.Space.Regions(),
		Perms:   map[uint64]mem.Perm{},
		Hashes:  map[uint64][32]byte{},
		Heap:    p.Heap.Stats(),
		RSS:     p.Space.RSSBytes(),
		MaxRSS:  p.Space.MaxRSSBytes(),
	}
	_, st.Brk = p.Heap.Bounds()
	for _, r := range st.Regions {
		for a := r.Addr; a < r.Addr+r.Size; a += mem.PageSize {
			data, perm, _, ok := p.Space.Slab(a)
			if !ok {
				t.Fatalf("%#x: region page not mapped", a)
			}
			st.Perms[a] = perm
			st.Hashes[a] = sha256.Sum256(data[:])
		}
	}
	return st
}

// allocTrace replays the same allocation sequence on p and returns the
// addresses: equal traces mean equal free lists and heap RNG states.
func allocTrace(t *testing.T, p *Process) []uint64 {
	t.Helper()
	var out []uint64
	for _, size := range []uint64{24, mem.PageSize, 200, 3 * mem.PageSize, 16} {
		a, err := p.Heap.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// TestForkIsolation mutates one fork through every write path — data,
// stack and heap stores through Write and OwnSlab, heap allocation and
// free, Protect and Unmap — and checks that a fork made before, a fork made
// after and the snapshot itself all still hold the pristine state.
func TestForkIsolation(t *testing.T) {
	img := snapshotImage(t)
	snap, err := Load(img, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	pristine := stateOf(t, snap.p)
	before := snap.Fork(nil)

	a := snap.Fork(nil)
	if !reflect.DeepEqual(stateOf(t, a), pristine) {
		t.Fatal("a fresh fork differs from its snapshot")
	}
	// Each store path meets both kinds of shared page: one holding the
	// snapshot's bytes and one nobody wrote (backed by the zero page).
	sp := a.Space
	g := img.DataSyms["g"].Addr
	stack := a.InitialRSP - 8
	for _, addr := range []uint64{a.BTDPArray, stack} {
		if err := sp.Write64(addr, 0xdeadbeef); err != nil {
			t.Fatalf("write %#x: %v", addr, err)
		}
	}
	// The VM's store path: take a slab's bytes, then write through them.
	for _, addr := range []uint64{g, stack - mem.PageSize} {
		if _, _, owned, _ := sp.Slab(addr); owned {
			t.Fatalf("slab %#x owned by a fork that never wrote it", addr)
		}
		sp.OwnSlab(addr)[addr&mem.PageMask] = 0xab
		if _, _, owned, _ := sp.Slab(addr); !owned {
			t.Fatalf("slab %#x not owned after OwnSlab", addr)
		}
	}
	// SysAlloc / SysFree.
	chunk, err := a.Heap.Alloc(2 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Write64(chunk, 7); err != nil {
		t.Fatal(err)
	}
	if err := a.Heap.Free(a.BTDPArray); err != nil {
		t.Fatal(err)
	}
	// Protect and unmap.
	if err := sp.Protect(mem.AlignDown(g, mem.PageSize), mem.PageSize, mem.PermNone); err != nil {
		t.Fatal(err)
	}
	if err := a.Heap.Protect(a.GuardPages[0], mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := sp.Unmap(img.StackLow, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(stateOf(t, a), pristine) {
		t.Fatal("the mutations did not change the mutated fork")
	}

	for name, p := range map[string]*Process{"fork made before": before, "fork made after": snap.Fork(nil)} {
		if got := stateOf(t, p); !reflect.DeepEqual(got, pristine) {
			t.Errorf("%s sees the other fork's mutations", name)
		}
	}
	if !reflect.DeepEqual(stateOf(t, snap.p), pristine) {
		t.Fatal("the snapshot changed under a fork's mutations")
	}

	// Forks place allocations exactly where a process loaded afresh does.
	fresh, err := load(img, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := allocTrace(t, fresh)
	for name, p := range map[string]*Process{"fork made before": before, "fork made after": snap.Fork(nil)} {
		if got := allocTrace(t, p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s allocates at %#x, a fresh load at %#x", name, got, want)
		}
	}
}

// TestSnapshotIsFrozen pins that the snapshot's own space refuses writes:
// only forks are mutable.
func TestSnapshotIsFrozen(t *testing.T) {
	snap, err := Load(snapshotImage(t), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("writing a snapshot's space did not panic")
		}
	}()
	_ = snap.p.Space.Write64(snap.p.InitialRSP, 1)
}
