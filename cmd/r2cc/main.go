// Command r2cc is the compiler driver: it compiles a built-in workload (or
// the attack victim) under a named defense configuration and can dump the
// disassembly, the text/data layout, and a paused stack view — the
// executable version of the paper's Figures 2, 3 and 5.
//
// Workloads: any SPEC benchmark name (perlbench, gcc, ...), nginx, apache,
// victim, or a path to a .tir source file (see internal/tir's textual
// format). `r2cc -h` lists the flags.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"r2c/internal/attack"
	"r2c/internal/defense"
	"r2c/internal/harness"
	"r2c/internal/sim"
	"r2c/internal/vm"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	h := harness.New("r2cc", "<workload|victim|FILE.tir>", stdout, stderr, 0)
	cfgName := h.Flags.String("config", "r2c", "defense configuration (baseline, r2c, push, avx, btdp, prolog, layout, oia, readactor, krx, ...)")
	seed := h.Flags.Uint64("seed", 1, "diversification seed")
	dump := h.Flags.String("dump", "", "disassemble the named function")
	layout := h.Flags.Bool("layout", false, "print the text/data layout")
	stack := h.Flags.Bool("stack", false, "run to a pause point and dump the stack (the Figure 2 view)")
	runIt := h.Flags.Bool("run", false, "execute the program and report statistics; the sink flags apply to this run")
	scale := h.Flags.Int("scale", 8, "workload scale divisor")
	profile := h.Flags.Bool("profile", false, "with -run: print the per-function simulated-cycle profile")
	top := h.Flags.Int("top", 15, "rows in the -profile hot-function table")

	return h.Main(args, func() error {
		cfg, ok := defense.ByName(*cfgName)
		if !ok {
			return fmt.Errorf("unknown config %q", *cfgName)
		}
		mod, err := harness.Module(h.Flags.Arg(0), *scale)
		if err != nil {
			return err
		}
		// BuildImage is the same compile+link pipeline the experiment
		// harnesses memoize in their build caches; going through it keeps
		// the seed derivation in one place.
		img, err := sim.BuildImage(mod, cfg, *seed, nil)
		if err != nil {
			return err
		}
		st := mod.Stats()
		fmt.Fprintf(stdout, "%s under %s (seed %d): %d funcs, %d TIR instrs, %d call sites, text %d KiB, data %d KiB\n",
			mod.Name, cfg.Name, *seed, st.Funcs, st.Instrs, st.CallSites,
			img.TextSize()/1024, img.DataSize()/1024)

		if *dump != "" {
			f := img.Prog.Func(*dump)
			if f == nil {
				return fmt.Errorf("no function %q", *dump)
			}
			fmt.Fprint(stdout, f.Disasm(img.Prog.Syms))
			if len(f.CallSites) > 0 {
				fmt.Fprintln(stdout, "call sites:")
				for _, cs := range f.CallSites {
					callee := cs.Callee
					if callee == "" {
						callee = "<indirect>"
					}
					fmt.Fprintf(stdout, "  #%d -> %s: pre=%d post=%d nops=%d stackargs=%d\n",
						cs.ID, callee, cs.Pre, cs.Post, cs.NumNOPs, cs.StackArgs)
				}
			}
		}

		if *layout {
			fmt.Fprintln(stdout, "text layout:")
			for i, name := range img.FuncOrder {
				pf := img.Funcs[name]
				tag := ""
				if pf.F.BoobyTrap {
					tag = " [booby trap]"
				} else if pf.F.Stub {
					tag = " [stub]"
				}
				fmt.Fprintf(stdout, "  %#x +%-5d %s%s\n", pf.Start, pf.End-pf.Start, name, tag)
				if i > 60 {
					fmt.Fprintf(stdout, "  ... (%d more)\n", len(img.FuncOrder)-i)
					break
				}
			}
			fmt.Fprintln(stdout, "data layout:")
			for i, name := range img.DataOrder {
				ds := img.DataSyms[name]
				fmt.Fprintf(stdout, "  %#x +%-5d %-12s %s\n", ds.Addr, ds.Size, ds.Kind, name)
				if i > 60 {
					fmt.Fprintf(stdout, "  ... (%d more)\n", len(img.DataOrder)-i)
					break
				}
			}
		}

		if *stack {
			if h.Flags.Arg(0) != "victim" {
				return fmt.Errorf("-stack needs the victim workload")
			}
			s, err := attack.NewScenario(nil, cfg, *seed)
			if err != nil {
				return err
			}
			dumpStack(stdout, s)
		}

		if !*runIt {
			return nil
		}
		if err := h.Open(0, *profile); err != nil {
			return err
		}
		proc, err := sim.NewProcessFromImage(img, *seed, h.Obs)
		if err != nil {
			return err
		}
		// A trap or fault is the program's outcome, printed like a halt; only
		// fuel, cancellation and VM errors end the command.
		res, err := sim.ExecMachine(h.Ctx, vm.New(proc, vm.EPYCRome()), h.Obs, nil, 0)
		if err != nil && res.Trap == nil && res.Fault == nil {
			return err
		}
		fmt.Fprintf(stdout, "executed %d instructions, %d calls, %.0f cycles (%.3f ms on %s), maxrss %d KiB\n",
			res.Instructions, res.Calls, res.Cycles, res.Seconds(vm.EPYCRome())*1e3,
			vm.EPYCRome().Name, res.MaxRSSBytes/1024)
		fmt.Fprintf(stdout, "output: %#x (halted=%v)\n", res.Output, res.Halted)
		if *profile {
			h.Obs.Reg().WriteHotFunctions(stdout, *top)
		}
		return nil
	})
}

// dumpStack prints the paused stack with toolchain annotations — the
// executable rendition of Figure 2: under the baseline the return address
// sits alone at a predictable spot; under R2C it hides among BTRAs with
// BTDPs mixed into the data.
func dumpStack(w io.Writer, s *attack.Scenario) {
	rsp := s.RSP()
	fmt.Fprintf(w, "paused at pc=%#x rsp=%#x; stack view (64 words):\n", s.Mach.CPU.PC, rsp)
	type ann struct {
		addr uint64
		note string
	}
	var anns []ann
	for off := uint64(0); off < 64*8; off += 8 {
		addr := rsp + off
		v, err := s.Proc.Space.Read64(addr)
		if err != nil {
			break
		}
		note := ""
		switch {
		case s.IsRealRA(attack.Leaked{Value: v}):
			note = "<- RETURN ADDRESS"
		case s.Proc.Img.IsBoobyTrapAddr(v):
			note = "<- booby-trapped return address (BTRA)"
		case s.IsBTDP(v):
			note = "<- booby-trapped data pointer (BTDP)"
		case s.Proc.Heap.Contains(v):
			note = "<- heap pointer"
		case s.Proc.Img.FuncAt(v) != nil:
			note = "<- code pointer"
		}
		anns = append(anns, ann{addr, fmt.Sprintf("%#018x  %s", v, note)})
	}
	sort.Slice(anns, func(i, j int) bool { return anns[i].addr < anns[j].addr })
	for _, a := range anns {
		fmt.Fprintf(w, "  %#x: %s\n", a.addr, a.note)
	}
}
