package codegen_test

import (
	"sort"
	"sync"
	"testing"
	"unsafe"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/isa"
	"r2c/internal/workload"
)

// TestInstrSlicesAreDisjoint pins the exact-size build path's aliasing
// contract. Lowering reuses one scratch buffer, and the linker's address
// index is windows of one shared array; image.resolve writes instructions
// in place, so a slice with spare capacity or an overlapping neighbour
// would let one function's writes (or appends) corrupt another's. Booby-trap
// functions are the one exception: they share one read-only body, which
// TestTrapBodyStaysShared holds.
func TestInstrSlicesAreDisjoint(t *testing.T) {
	m := workload.Perlbench(2)
	for _, cfg := range []defense.Config{defense.R2CFull(), defense.Off()} {
		prog, err := codegen.Compile(m, cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		instrs := map[string][]isa.Instr{}
		for _, f := range prog.Funcs {
			if !f.BoobyTrap {
				instrs[f.Name] = f.Instrs
			}
		}
		checkDisjoint(t, cfg.Name+" Instrs", instrs)

		img, err := image.Link(prog, 7)
		if err != nil {
			t.Fatal(err)
		}
		addrs := map[string][]uint64{}
		for name, pf := range img.Funcs {
			addrs[name] = pf.InstrAddrs
		}
		checkDisjoint(t, cfg.Name+" InstrAddrs", addrs)
	}
}

// TestTrapBodyStaysShared holds the contract that lets every booby-trap
// function of every build share one instruction body: nothing writes it.
// Several r2c-full images are compiled and linked at once (so the race
// detector sees any write beside the others' reads) and one of them is
// rerolled; the body must still be TrapFuncLen traps with no operand.
func TestTrapBodyStaysShared(t *testing.T) {
	m := workload.Perlbench(2)
	imgs := make([]*image.Image, 4)
	errs := make([]error, len(imgs))
	var wg sync.WaitGroup
	for i := range imgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, err := codegen.Compile(m, defense.R2CFull(), uint64(i)+1)
			if err == nil {
				imgs[i], err = image.Link(prog, uint64(i)+1)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := imgs[0].Reroll(99); err != nil {
		t.Fatal(err)
	}

	var body *isa.Instr
	n := 0
	for _, img := range imgs {
		for _, f := range img.Prog.Funcs {
			if !f.BoobyTrap {
				continue
			}
			n++
			if len(f.Instrs) != codegen.TrapFuncLen || cap(f.Instrs) != codegen.TrapFuncLen {
				t.Fatalf("%s: len %d cap %d, want %d", f.Name, len(f.Instrs), cap(f.Instrs), codegen.TrapFuncLen)
			}
			if body == nil {
				body = &f.Instrs[0]
			} else if &f.Instrs[0] != body {
				t.Fatalf("%s does not share the booby-trap body", f.Name)
			}
			for i, in := range f.Instrs {
				if in != (isa.Instr{Kind: isa.KTrap, LocalTarget: -1}) {
					t.Fatalf("%s instr %d = %+v, want a bare trap", f.Name, i, in)
				}
			}
		}
	}
	if want := len(imgs) * defense.R2CFull().BTRAPoolSize; n != want {
		t.Fatalf("%d booby-trap functions, want %d", n, want)
	}
}

// checkDisjoint requires every slice to have cap == len and no two of them
// to share memory.
func checkDisjoint[E any](t *testing.T, what string, slices map[string][]E) {
	t.Helper()
	type extent struct {
		name   string
		lo, hi uintptr
	}
	var exts []extent
	for name, s := range slices {
		if cap(s) != len(s) {
			t.Errorf("%s: %s has len %d but cap %d", what, name, len(s), cap(s))
		}
		if cap(s) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
			exts = append(exts, extent{name, lo, lo + uintptr(cap(s))*unsafe.Sizeof(s[0])})
		}
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].lo < exts[j].lo })
	for i := 1; i < len(exts); i++ {
		if exts[i].lo < exts[i-1].hi {
			t.Errorf("%s: %s overlaps %s", what, exts[i].name, exts[i-1].name)
		}
	}
}
