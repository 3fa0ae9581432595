// Package sim wires the full toolchain together: compile a TIR module under
// a defense configuration, link it with ASLR, load it into a fresh process,
// and execute it on a machine profile. Everything downstream — workload
// benchmarks, the attack framework, the examples — goes through these
// helpers.
package sim

import (
	"context"
	"fmt"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/rt"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
)

// DefaultBudget is the per-run instruction budget; workloads are sized well
// below it, so hitting it indicates a toolchain bug (e.g. a corrupted
// return address looping forever).
const DefaultBudget = 600_000_000

// Build compiles, links and loads a module. The single seed drives compile-
// time diversification, link-time layout (ASLR, shuffling) and load-time
// randomness (BTDP placement); different seeds produce fully re-diversified
// processes, like the paper's per-run recompilation with fresh seeds
// (Section 6.2). A non-nil obs is attached to the loaded process, so
// load-time events (the BTDP constructor) and later traps and faults reach
// its sinks; obs may be nil.
func Build(m *tir.Module, cfg defense.Config, seed uint64, obs *telemetry.Observer) (*rt.Process, error) {
	img, err := BuildImage(m, cfg, seed, nil)
	if err != nil {
		return nil, err
	}
	return NewProcessFromImage(img, seed, obs)
}

// BuildImage runs the immutable half of Build: compile and link, but do not
// load. The result depends only on (module content, cfg, seed), carries no
// mutable process state, and is what the exec build cache memoizes. A
// non-nil sp gets "sim.compile" and "sim.link" children; the span is
// observational only, and a nil sp builds the identical image.
func BuildImage(m *tir.Module, cfg defense.Config, seed uint64, sp *telemetry.Span) (*image.Image, error) {
	cs := sp.Child("sim.compile", seed)
	prog, err := codegen.Compile(m, cfg, seed)
	cs.End()
	if err != nil {
		return nil, err
	}
	ls := sp.Child("sim.link", seed)
	img, err := image.Link(prog, seed*0x9e3779b97f4a7c15+1)
	ls.End()
	return img, err
}

// NewProcessFromImage runs the mutable half of Build: load img into a fresh
// address space and run load-time initialization, deriving the load-time
// randomness from the same run seed Build uses — so a process created from a
// cached image is bit-identical to one from a fresh build. It is LoadImage
// followed by one Fork.
func NewProcessFromImage(img *image.Image, seed uint64, obs *telemetry.Observer) (*rt.Process, error) {
	s, err := LoadImage(img, seed, obs)
	if err != nil {
		return nil, err
	}
	return s.Fork(obs), nil
}

// LoadImage loads img under the run seed as NewProcessFromImage does, but
// returns the frozen snapshot: every Fork of it is bit-identical to a
// NewProcessFromImage(img, seed, ...) process, without paying the loader
// and BTDP constructor again.
func LoadImage(img *image.Image, seed uint64, obs *telemetry.Observer) (*rt.Snapshot, error) {
	return rt.Load(img, seed*0xbf58476d1ce4e5b9+2, obs)
}

// Run builds and executes a module to completion on the given profile.
func Run(m *tir.Module, cfg defense.Config, seed uint64, prof *vm.Profile) (*vm.Result, *rt.Process, error) {
	proc, err := Build(m, cfg, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	res, err := ExecMachine(context.Background(), vm.New(proc, prof), nil, nil, 0)
	return res, proc, err
}

// ExecMachine runs a loaded process to completion on a machine the caller
// armed — fresh from vm.New, or re-armed by Machine.Reset, as the serving
// fleet does per request. mach must not have run since it was armed; the
// returned Result points into mach and is valid until its next Reset. It is
// the one run call, so every caller reports results and errors identically.
//
// Under a non-nil obs the machine publishes its counters (and, when obs
// requests profiling, per-function cycle attribution) into obs's registry
// when the run ends; a nil obs changes no result (the determinism test
// asserts it). A non-nil sp gets a "sim.exec" child carrying the retired
// instructions, modeled cycles and how the run ended.
//
// maxInstr is the instruction allowance (0 means DefaultBudget); exhausting
// it returns an error wrapping vm.ErrFuelExhausted, and a cancelled ctx
// returns ctx.Err() unwrapped. RunCtx resumes bit-exactly, so ctx and
// maxInstr never perturb a run they don't stop. A fault or trap returns its
// result alongside an error.
func ExecMachine(ctx context.Context, mach *vm.Machine, obs *telemetry.Observer, sp *telemetry.Span, maxInstr uint64) (*vm.Result, error) {
	fuel := maxInstr
	if fuel == 0 {
		fuel = DefaultBudget
	}
	es := sp.Child("sim.exec", 0)
	defer es.End()
	if obs.Profiling() {
		mach.EnableProfiler()
	}
	res, err := mach.RunCtx(ctx, fuel)
	if res != nil && es != nil { // boxing the attributes allocates even for a nil span
		es.SetAttr("instructions", res.Instructions)
		es.SetAttr("cycles", res.Cycles)
		switch {
		case res.Trap != nil:
			es.SetAttr("end", "trap")
		case res.Fault != nil:
			es.SetAttr("end", "fault")
		case res.Halted:
			es.SetAttr("end", "halt")
		case err == vm.ErrFuelExhausted:
			es.SetAttr("end", "fuel")
		case err == ctx.Err():
			es.SetAttr("end", "cancelled")
		default: // RunCtx's error-free endings are halt, fault and trap
			es.SetAttr("end", "error")
			es.SetAttr("error", err.Error())
		}
	}
	if reg := obs.Reg(); reg != nil {
		mach.PublishMetrics(reg)
		if p := mach.Profiler(); p != nil {
			p.Publish(reg)
		}
	}
	if err == vm.ErrFuelExhausted {
		es.SetAttr("error", "fuel exhausted")
		return res, fmt.Errorf("sim: fuel limit of %d instructions exhausted: %w", fuel, vm.ErrFuelExhausted)
	}
	if err != nil {
		return res, err
	}
	if res.Fault != nil {
		return res, fmt.Errorf("sim: run faulted: %v", res.Fault)
	}
	if res.Trap != nil {
		return res, fmt.Errorf("sim: booby trap fired at %#x (%v)", res.Trap.PC, res.Trap.Kind)
	}
	if !res.Halted {
		return res, fmt.Errorf("sim: did not halt")
	}
	return res, nil
}
