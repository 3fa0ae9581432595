package codegen

import (
	"testing"

	"r2c/internal/defense"
	"r2c/internal/isa"
	"r2c/internal/workload"
)

// TestPropertiesOverRandomPrograms checks the structural invariants of
// Sections 4.1 and 5.1 over randomly generated programs, for both setup
// sequences:
//
//   - pre-offsets are even (stack alignment, Section 5.1);
//   - pre+post covers the configured BTRA count (± the alignment pad);
//   - direct call sites to protected callees use the callee's post-offset;
//   - every BTRA operand resolves to a booby-trap symbol;
//   - each instrumented call site pushes its return address exactly once
//     (property A);
//   - no two call sites share an identical BTRA set (property C);
//   - AVX arrays carry exactly one RA word at index padded-(pre+1).
func TestPropertiesOverRandomPrograms(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 6
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		m := workload.Random(seed)
		for _, cfg := range []defense.Config{defense.R2CPush(), defense.R2CFull()} {
			p, err := Compile(m, cfg, seed)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, cfg.Name, err)
			}
			seen := map[string]int{}
			for _, f := range p.Funcs {
				for _, cs := range f.CallSites {
					if cs.Pre == 0 && cs.Post == 0 {
						continue // uninstrumented (tail call or downgraded)
					}
					if cs.Pre%2 != 0 {
						t.Fatalf("seed %d %s: odd pre at site %d", seed, cfg.Name, cs.ID)
					}
					total := cs.Pre + cs.Post
					if total < cfg.BTRAsPerCall || total > cfg.BTRAsPerCall+1 {
						t.Fatalf("seed %d %s: site %d has %d BTRAs", seed, cfg.Name, cs.ID, total)
					}
					if cs.Callee != "" {
						if callee := p.Func(cs.Callee); callee != nil && callee.Protected && cs.Post != callee.PostOffset {
							t.Fatalf("seed %d %s: site %d post mismatch", seed, cfg.Name, cs.ID)
						}
					}
					key := ""
					for _, b := range cs.BTRAs {
						key += p.Syms[b.Sym] + "+"
					}
					seen[key]++
					if seen[key] > 1 && len(cs.BTRAs) >= 4 {
						t.Fatalf("seed %d %s: duplicate BTRA set across call sites", seed, cfg.Name)
					}
				}
				// Property A at the instruction level: one RA per site.
				raPerSite := map[int32]int{}
				for i := range f.Instrs {
					in := &f.Instrs[i]
					if in.RetAddr {
						raPerSite[in.CallSiteID]++
					}
					if in.BTRA && in.Kind == isa.KPushImm && in.Sym == isa.NoSym {
						t.Fatalf("seed %d: BTRA push without a trap symbol", seed)
					}
				}
				for id, c := range raPerSite {
					if c != 1 {
						t.Fatalf("seed %d %s: site %d has %d RA pushes", seed, cfg.Name, id, c)
					}
				}
			}
			// AVX arrays: exactly one RA word, at the documented index.
			for _, b := range p.Blobs {
				ras := 0
				raIdx := -1
				for i, w := range b.Words {
					if w.RetAddr {
						ras++
						raIdx = i
					}
				}
				if ras != 1 {
					t.Fatalf("seed %d: blob %s has %d RA words", seed, b.Name, ras)
				}
				var site *CallSite
				for _, f := range p.Funcs {
					for i := range f.CallSites {
						if f.CallSites[i].ArraySym == b.Name {
							site = &f.CallSites[i]
						}
					}
				}
				if site == nil {
					t.Fatalf("seed %d: blob %s is orphaned", seed, b.Name)
				}
				if want := len(b.Words) - (site.Pre + 1); raIdx != want {
					t.Fatalf("seed %d: blob %s RA at %d, want %d", seed, b.Name, raIdx, want)
				}
			}
		}
	}
}
