// aocr mounts the paper's headline attack — address-oblivious code reuse
// (Section 2.3) — against the same victim program built three ways:
// unprotected, code-diversification-only (Readactor), and full R2C. It
// narrates each stage of the chain so the defense mechanics are visible.
//
//	go run ./examples/aocr
package main

import (
	"fmt"
	"log"

	"r2c/internal/attack"
	"r2c/internal/defense"
)

func main() {
	fmt.Println("AOCR: (A) profile the stack, (B) leak the heap, (C) corrupt the data section")
	fmt.Println()

	for _, cfg := range []defense.Config{defense.Off(), defense.Readactor(), defense.R2CFull()} {
		fmt.Printf("=== victim protected by: %s ===\n", cfg.Name)
		narrate(cfg)
		fmt.Println()
	}

	fmt.Println("verdict across 12 trials each:")
	for _, cfg := range []defense.Config{defense.Off(), defense.Readactor(), defense.R2CFull()} {
		tally := attack.Tally{}
		for seed := uint64(1); seed <= 12; seed++ {
			s, err := attack.NewScenario(nil, cfg, seed)
			if err != nil {
				log.Fatal(err)
			}
			tally.Add(s.AOCR())
		}
		fmt.Printf("  %-12s %v\n", cfg.Name, &tally)
	}
}

func narrate(cfg defense.Config) {
	s, err := attack.NewScenario(nil, cfg, 6)
	if err != nil {
		log.Fatal(err)
	}

	// Stage A: stack profiling.
	leaks, err := s.LeakStack(2 * 4096)
	if err != nil {
		log.Fatal(err)
	}
	cl := s.Classify(leaks)
	fmt.Printf("  A: leaked %d stack words; %d pointer clusters", len(leaks), len(cl.All))
	if cl.Heap != nil {
		btdps := 0
		for _, v := range cl.Heap.Values {
			if s.IsBTDP(v) {
				btdps++
			}
		}
		fmt.Printf("; heap cluster has %d pointers (%d are BTDPs in disguise)\n",
			cl.Heap.Count, btdps)
	} else {
		fmt.Println("; no heap cluster found — attack stalls")
		return
	}

	// Stage B+C via the full chain, reporting the outcome.
	o := s.AOCR()
	switch o {
	case attack.Success:
		fmt.Println("  B: heap object leaked; found the pointer into the data section")
		fmt.Println("  C: located admin_ptr and secret_key at monoculture offsets,")
		fmt.Println("     overwrote them, and the next dispatch called secret_disclose(0x1337)")
		fmt.Println("  => ATTACK SUCCEEDED: the victim printed the WIN sentinel")
	case attack.Detected:
		fmt.Printf("  => ATTACK DETECTED after %d booby-trap detonation(s): a dereferenced\n", s.Detections+int(s.Proc.TrapCount()))
		fmt.Println("     'heap pointer' was a BTDP guard page (Section 4.2)")
	case attack.Failed:
		fmt.Println("  => attack FAILED silently: shuffled globals put the corruption in the")
		fmt.Println("     wrong place, so the dispatch stayed benign (Section 7.2.2)")
	case attack.Crashed:
		fmt.Println("  => the victim crashed without reaching the attacker's goal")
	}
}
