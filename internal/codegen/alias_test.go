package codegen_test

import (
	"sort"
	"testing"
	"unsafe"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/isa"
	"r2c/internal/workload"
)

// TestInstrSlicesAreDisjoint pins the exact-size build path's aliasing
// contract. Lowering reuses one scratch buffer, and the booby-trap pool and
// the linker's address index are windows of shared arrays; image.resolve
// writes instructions in place, so a slice with spare capacity or an
// overlapping neighbour would let one function's writes (or appends)
// corrupt another's.
func TestInstrSlicesAreDisjoint(t *testing.T) {
	m := workload.Perlbench(2)
	for _, cfg := range []defense.Config{defense.R2CFull(), defense.Off()} {
		prog, err := codegen.Compile(m, cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		instrs := map[string][]isa.Instr{}
		for _, f := range prog.Funcs {
			instrs[f.Name] = f.Instrs
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
