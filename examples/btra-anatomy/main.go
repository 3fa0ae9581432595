// btra-anatomy walks through the booby-trapped return address mechanism of
// Figure 3: the disassembled call-site setup, the paused stack image with
// the return address camouflaged among BTRAs (Figure 2b), and what happens
// when each candidate is "returned to".
//
//	go run ./examples/btra-anatomy
package main

import (
	"fmt"
	"log"

	"r2c/internal/attack"
	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/isa"
)

func main() {
	cfg := defense.R2CPush() // push setup reads best in disassembly
	s, err := attack.NewScenario(nil, cfg, 4)
	if err != nil {
		log.Fatal(err)
	}

	// 1. The call-site instrumentation (Figure 3a, caller side).
	fmt.Println("=== 1. caller-side BTRA setup (validate's call to helper) ===")
	pf := s.Proc.Img.Funcs[attack.SymValidate]
	printed := 0
	for i, in := range pf.F.Instrs {
		if in.Kind == isa.KPushImm || in.Kind == isa.KCall ||
			(in.Kind == isa.KAluImm && in.Dst == isa.RSP) || in.Kind == isa.KNop {
			fmt.Printf("  %#x: %s\n", pf.InstrAddrs[i], in.Format(s.Proc.Img.Prog.Syms))
			printed++
			if in.Kind == isa.KCall {
				break
			}
		}
	}
	var site *codegen.CallSite
	for i := range pf.F.CallSites {
		if pf.F.CallSites[i].Callee == attack.SymHelper {
			site = &pf.F.CallSites[i]
		}
	}
	if site != nil {
		fmt.Printf("  -> call site #%d: %d BTRAs above the RA (pre), %d below (post), %d NOPs\n",
			site.ID, site.Pre, site.Post, site.NumNOPs)
	}

	// 2. The callee cooperates (Figure 3a, right): the post-offset sub.
	fmt.Println("\n=== 2. callee-side post-offset protection (helper prologue) ===")
	hf := s.Proc.Img.Funcs[attack.SymHelper]
	for i, in := range hf.F.Instrs {
		fmt.Printf("  %#x: %s\n", hf.InstrAddrs[i], in.Format(s.Proc.Img.Prog.Syms))
		if i > 6 {
			fmt.Println("  ...")
			break
		}
	}
	fmt.Printf("  helper's post-offset: %d words\n", hf.F.PostOffset)

	// 3. The resulting stack image (Figure 2b): the paused frame.
	fmt.Println("\n=== 3. the paused stack: find the return address! ===")
	cands, err := s.RACandidates()
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range cands {
		tag := "booby-trapped return address (BTRA)"
		if s.IsRealRA(c) {
			tag = "REAL return address"
		}
		fmt.Printf("  %#x: %#x  <- %s\n", c.Addr, c.Value, tag)
	}

	// 4. What "returning" to each candidate does.
	fmt.Println("\n=== 4. consequence of guessing each candidate ===")
	for i, c := range cands {
		switch {
		case s.IsRealRA(c):
			fmt.Printf("  candidate %2d: control returns normally — the one correct guess\n", i)
		case s.IsBTRA(c):
			fmt.Printf("  candidate %2d: lands in a booby-trap function — attack DETECTED\n", i)
		default:
			fmt.Printf("  candidate %2d: some other code pointer\n", i)
		}
	}
	fmt.Printf("\nattacker's per-frame odds: 1/%d; a 4-address ROP chain: (1/%d)^4 ≈ %.1e (Section 7.2.1)\n",
		len(cands), len(cands), 1.0/float64(len(cands)*len(cands)*len(cands)*len(cands)))
}
