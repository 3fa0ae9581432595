package vm_test

import (
	"testing"

	"r2c/internal/defense"
	"r2c/internal/mem"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/tir"
	"r2c/internal/vm"
)

// The fast path's memory ops first try a data-TLB hit that checks only a
// per-entry tag; everything else falls through to the slab lookup the
// reference interpreter always takes. These tests drive each access whose
// tag must not match — shared or zero-page bytes, missing permissions,
// page-crossing words, bytes replaced behind the machine's back, a reused
// machine — and require both engines to agree on the whole Result,
// TLBHits and TLBMisses included.

// edgeModule builds a one-function module: body emits main's code, then
// main returns.
func edgeModule(name string, globals func(*tir.ModuleBuilder), body func(*tir.FuncBuilder)) *tir.Module {
	mb := tir.NewModule(name)
	if globals != nil {
		globals(mb)
	}
	main := mb.NewFunc("main", 0)
	body(main)
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

// pageOf returns the page-aligned address at or above p.
func pageOf(f *tir.FuncBuilder, p tir.Reg) tir.Reg {
	return f.Bin(tir.OpAnd, f.Bin(tir.OpAdd, p, f.Const(mem.PageSize-1)), f.Const(^uint64(mem.PageSize-1)))
}

func TestTLBTagEdgesMatchReference(t *testing.T) {
	cases := []struct {
		name    string
		cfg     defense.Config
		globals func(*tir.ModuleBuilder)
		body    func(*tir.FuncBuilder)
		// poke runs on each freshly loaded process before its machine runs.
		poke  func(t *testing.T, p *rt.Process)
		check func(t *testing.T, r *vm.Result)
	}{
		{
			// A heap page nobody wrote is the shared zero page: the load
			// caches it readable but not owned, the first store takes
			// write64's OwnSlab branch, and later accesses must see the
			// copy. The untouched page after it is first touched by a store.
			name: "zero-page",
			body: func(f *tir.FuncBuilder) {
				q := pageOf(f, f.Alloc(f.Const(4*mem.PageSize)))
				f.Output(f.Load(q, 0))
				f.Store(q, 0, f.Const(5))
				f.Output(f.Load(q, 0))
				f.Store(q, 8, f.Const(6))
				f.Output(f.Load(q, 8))
				f.Store(q, mem.PageSize+16, f.Const(7))
				f.Output(f.Load(q, mem.PageSize+16))
			},
			check: func(t *testing.T, r *vm.Result) {
				if got := r.Output; len(got) != 4 || got[0] != 0 || got[1] != 5 || got[2] != 6 || got[3] != 7 {
					t.Fatalf("output %v, want [0 5 6 7]", got)
				}
			},
		},
		{
			// g's page was written by the loader, so every fork shares it
			// with the snapshot until its first store copies it.
			name:    "fork-shared",
			globals: func(mb *tir.ModuleBuilder) { mb.AddGlobal("g", 8, 41) },
			body: func(f *tir.FuncBuilder) {
				g := f.AddrGlobal("g")
				v := f.Load(g, 0)
				f.Output(v)
				f.Store(g, 0, f.Bin(tir.OpAdd, v, f.Const(1)))
				f.Output(f.Load(g, 0))
			},
			check: func(t *testing.T, r *vm.Result) {
				if got := r.Output; len(got) != 2 || got[0] != 41 || got[1] != 42 {
					t.Fatalf("output %v, want [41 42]", got)
				}
			},
		},
		{
			// The pointer in p is planted by poke: a BTDP guard page, which
			// has no read permission, so the load faults and detonates.
			name:    "btdp-guard",
			cfg:     defense.R2CFull(),
			globals: func(mb *tir.ModuleBuilder) { mb.AddGlobal("p", 8) },
			body: func(f *tir.FuncBuilder) {
				f.Output(f.Load(f.Load(f.AddrGlobal("p"), 0), 0))
			},
			poke: func(t *testing.T, p *rt.Process) {
				if len(p.GuardPages) == 0 {
					t.Fatal("no guard pages")
				}
				if err := p.Space.Write64(p.Img.DataSyms["p"].Addr, p.GuardPages[0]+64); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, r *vm.Result) {
				if r.Fault == nil || r.Trap == nil || r.Trap.Kind != rt.TrapBTDP {
					t.Fatalf("fault %v trap %v, want a BTDP trap", r.Fault, r.Trap)
				}
			},
		},
		{
			// Text is readable, so the load caches it with a read tag only;
			// the store then hits the entry in write64 and faults there.
			name: "no-write",
			body: func(f *tir.FuncBuilder) {
				a := f.AddrFunc("main")
				v := f.Load(a, 0)
				f.Output(v)
				f.Store(a, 0, v)
			},
			check: func(t *testing.T, r *vm.Result) {
				if r.Fault == nil || r.Fault.Access != mem.AccessWrite || r.Fault.Unmapped {
					t.Fatalf("fault %v, want a write-permission fault", r.Fault)
				}
			},
		},
		{
			// The fork owns g's page (poke wrote it) but may only read it:
			// the load caches the page owned, and the store must still fault.
			name:    "owned-read-only",
			globals: func(mb *tir.ModuleBuilder) { mb.AddGlobal("g", 8, 3) },
			body: func(f *tir.FuncBuilder) {
				g := f.AddrGlobal("g")
				v := f.Load(g, 0)
				f.Output(v)
				f.Store(g, 0, v)
			},
			poke: func(t *testing.T, p *rt.Process) {
				g := p.Img.DataSyms["g"].Addr
				if err := p.Space.Write64(g, 9); err != nil {
					t.Fatal(err)
				}
				if err := p.Space.Protect(mem.AlignDown(g, mem.PageSize), mem.PageSize, mem.PermRead); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, r *vm.Result) {
				if r.Fault == nil || r.Fault.Access != mem.AccessWrite || len(r.Output) != 1 || r.Output[0] != 9 {
					t.Fatalf("fault %v output %v, want a write fault after loading 9", r.Fault, r.Output)
				}
			},
		},
		{
			// Offset 4088 is the last word inside the page; 4089–4095 cross
			// into the next one and take the space's byte path.
			name: "page-end",
			body: func(f *tir.FuncBuilder) {
				q := pageOf(f, f.Alloc(f.Const(4*mem.PageSize)))
				f.Store(q, 0, f.Const(1))
				f.Store(q, mem.PageSize, f.Const(2))
				acc := f.Const(0)
				for off := int64(mem.PageSize - 8); off < mem.PageSize; off++ {
					f.Store(q, off, f.Const(uint64(off)<<8|uint64(off)))
					f.BinTo(acc, tir.OpXor, acc, f.Load(q, off))
					f.BinTo(acc, tir.OpAdd, acc, f.Load(q, mem.PageSize))
				}
				f.Output(acc)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.Name == "" {
				cfg = defense.Off()
			}
			img := buildImage(t, edgeModule(tc.name, tc.globals, tc.body), cfg, 1)
			mk := func() *vm.Machine {
				m := newMachine(t, img, 1, vm.EPYCRome(), nil)
				if tc.poke != nil {
					tc.poke(t, m.Proc)
				}
				return m
			}
			fm, rm := mk(), mk()
			fast, ref := runFast(fm), runRef(rm)
			requireSame(t, tc.name, fast, ref)
			if fast.res.TLBHits == 0 {
				t.Fatal("no TLB hits")
			}
			if tc.check != nil {
				tc.check(t, fast.res)
			}
			if fast.res.Fault != nil {
				// Resuming re-executes the faulting op with its page now
				// cached: the entry's tags must still send it to the fault.
				pc := fast.pc
				fast, ref = runFast(fm), runRef(rm)
				requireSame(t, tc.name+" resumed", fast, ref)
				if fast.pc != pc {
					t.Fatalf("resumed run stopped at %#x, not at the faulting op %#x", fast.pc, pc)
				}
			}
		})
	}
	t.Run("attacker-write", testTLBAttackerWrites)
	t.Run("reset", testTLBReset)
}

// testTLBAttackerWrites pauses both engines at the same points and writes
// through the process's Space in between: into bytes the machine already
// owns (no page copy), and into a page the fork still shares with its
// snapshot (a copy the machine must pick up on resume).
func testTLBAttackerWrites(t *testing.T) {
	mod := edgeModule("attacker-writes", func(mb *tir.ModuleBuilder) {
		mb.AddGlobal("g", 8, 1)
		mb.AddGlobal("pad", 2*mem.PageSize)
		mb.AddGlobal("h", 8, 1)
	}, func(f *tir.FuncBuilder) {
		g, h := f.AddrGlobal("g"), f.AddrGlobal("h")
		i := f.Const(0)
		entry := f.Block()
		head, body, done := f.NewBlock(), f.NewBlock(), f.NewBlock()
		f.SetBlock(entry)
		f.Br(head)
		f.SetBlock(head)
		a := f.Load(g, 0)
		f.CondBr(f.Bin(tir.OpEq, a, f.Const(77)), done, body)
		f.SetBlock(body)
		f.Store(h, 0, f.Bin(tir.OpAdd, f.Load(h, 0), a))
		f.BinTo(i, tir.OpAdd, i, f.Const(1))
		f.CondBr(f.Bin(tir.OpLt, i, f.Const(50_000)), head, done)
		f.SetBlock(done)
		f.Output(i)
		f.Output(f.Load(h, 0))
	})
	img := buildImage(t, mod, defense.Off(), 1)
	g, h := img.DataSyms["g"].Addr, img.DataSyms["h"].Addr
	if g>>mem.PageShift == h>>mem.PageShift {
		t.Fatal("g and h share a page")
	}
	fm := newMachine(t, img, 1, vm.EPYCRome(), nil)
	rm := newMachine(t, img, 1, vm.EPYCRome(), nil)
	writes := []struct{ addr, v uint64 }{{h, 1000}, {g, 3}, {h, 5}, {g, 77}}
	for i := 0; ; i++ {
		fr, fe := fm.Run(2_000)
		rr, re := vm.RunReference(rm, 2_000)
		requireSame(t, "pause", leg{fr, errString(fe), fm.CPU.PC}, leg{rr, errString(re), rm.CPU.PC})
		if re != vm.ErrFuelExhausted {
			if out := fr.Output; len(out) != 2 || out[0] >= 50_000 {
				t.Fatalf("output %v: the loop missed the write of 77", out)
			}
			return
		}
		if i < len(writes) {
			w := writes[i]
			for _, m := range []*vm.Machine{fm, rm} {
				if err := m.Proc.Space.Write64(w.addr, w.v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// testTLBReset runs one process on a machine, resets the machine onto a
// second fork of the same snapshot and runs that. The first run owns copies
// of pages the second fork still shares, so a tag surviving Reset would
// send the second run's accesses into the first process's bytes.
func testTLBReset(t *testing.T) {
	mod := edgeModule("reset", func(mb *tir.ModuleBuilder) {
		mb.AddGlobal("g", 8, 10)
	}, func(f *tir.FuncBuilder) {
		g := f.AddrGlobal("g")
		v := f.Load(g, 0)
		f.Store(g, 0, f.Bin(tir.OpMul, v, f.Const(3)))
		f.Output(f.Load(g, 0))
	})
	img := buildImage(t, mod, defense.R2CFull(), 1)
	snap, err := sim.LoadImage(img, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, second, fresh := snap.Fork(nil), snap.Fork(nil), snap.Fork(nil)
	m := vm.New(first, vm.EPYCRome())
	if res, err := m.Run(sim.DefaultBudget); err != nil || !res.Halted {
		t.Fatalf("first run: %v", err)
	}
	m.Reset(second)
	fast := runFast(m)
	ref := runRef(vm.New(fresh, vm.EPYCRome()))
	requireSame(t, "reset", fast, ref)
	if out := fast.res.Output; len(out) != 1 || out[0] != 30 {
		t.Fatalf("second run output %v, want [30]", out)
	}
	if v, err := first.Space.Read64(img.DataSyms["g"].Addr); err != nil || v != 30 {
		t.Fatalf("first process's g = %d (%v) after the second run, want 30", v, err)
	}
}

// TestSyncTLBDropsUnmappedPages caches a page the machine owns and unmaps
// it (its bytes go back to the page pool, and the space's generation
// moves): the sync before the next run must drop the entry rather than
// keep the recycled bytes, so the next load faults as unmapped.
func TestSyncTLBDropsUnmappedPages(t *testing.T) {
	img := buildImage(t, edgeModule("sync", nil, func(f *tir.FuncBuilder) { f.Output(f.Const(1)) }), defense.Off(), 1)
	m := newMachine(t, img, 1, vm.EPYCRome(), nil)
	sp := m.Proc.Space
	const a = 0x7ff0_0000_0000
	if _, _, _, mapped := sp.Slab(a); mapped {
		t.Fatalf("%#x already mapped", a)
	}
	if err := sp.Map(a, mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if f := vm.Write64(m, a+8, 99); f != nil {
		t.Fatal(f)
	}
	if cached, rtag, wtag := vm.TLBEntry(m, a); !cached || rtag == 0 || wtag == 0 {
		t.Fatalf("after a store: cached %v rtag %#x wtag %#x, want a valid entry with both tags", cached, rtag, wtag)
	}
	if err := sp.Unmap(a, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	vm.SyncTLB(m)
	if cached, rtag, wtag := vm.TLBEntry(m, a); cached || rtag != 0 || wtag != 0 {
		t.Fatalf("after unmap: cached %v rtag %#x wtag %#x, want the entry dropped", cached, rtag, wtag)
	}
	if v, f := vm.Read64(m, a+8); f == nil || !f.Unmapped {
		t.Fatalf("load from the unmapped page returned %d, fault %v", v, f)
	}
}

// TestTLBHoldsSixteenPageStride sweeps 16 pages at a 4 KiB stride four
// times: only the first touch of each page may miss. A direct-mapped TLB
// with fewer entries than that maps pages i and i+8 to one slot, and the
// sweep then misses on every access (nab under r2c-full walks such a
// stride).
func TestTLBHoldsSixteenPageStride(t *testing.T) {
	img := buildImage(t, edgeModule("stride", nil, func(f *tir.FuncBuilder) { f.Output(f.Const(1)) }), defense.Off(), 1)
	m := newMachine(t, img, 1, vm.EPYCRome(), nil)
	const a, pages = 0x7ff0_0000_0000, 16
	if err := m.Proc.Space.Map(a, pages*mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for p := uint64(0); p < pages; p++ {
			if _, f := vm.Read64(m, a+p*mem.PageSize+8); f != nil {
				t.Fatal(f)
			}
		}
	}
	if got := vm.TLBMisses(m); got > pages {
		t.Fatalf("%d TLB misses over 4 sweeps of %d pages, want at most %d", got, pages, pages)
	}
}
