// Package mvee implements the Multi-Variant Execution Engine extension the
// paper proposes in Section 7.3: "MVEEs and diversification defenses like
// R2C naturally complement each other. Considering that R2C diversifies
// along multiple dimensions, an MVEE would detect data corruption or
// leakage in one of the variants with high probability."
//
// The engine builds N variants of one program — same source, same defense
// configuration, different diversification seeds — runs each under one
// instruction budget, and compares their observable event streams (output
// words, halt status, faults, booby traps). Lockstep is the cost model, not
// the execution order: the slowest variant sets a supervised request's
// service time. Because R2C diversification never changes program
// semantics (the repository's differential property), benign runs agree
// bit-for-bit; an attacker's memory corruption is address-dependent, so it
// perturbs each variant differently and surfaces as divergence even when it
// would be silent in a single process.
package mvee

import (
	"fmt"

	"r2c/internal/defense"
	"r2c/internal/incident"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/tir"
	"r2c/internal/vm"
)

// Variant is one diversified instance under the engine.
type Variant struct {
	Seed uint64
	Proc *rt.Process
	Mach *vm.Machine
}

// Engine supervises N variants.
type Engine struct {
	Variants []*Variant
	prof     *vm.Profile

	// Incidents, when set, receives one record per detection signal a
	// supervised run raises: each variant's trap, and the divergence
	// verdict itself (the MVEE-only signal the paper's Section 7.3 argues
	// complements R2C's reactive traps).
	Incidents *incident.Log

	// Campaign labels emitted incident records ("" defaults to "mvee").
	Campaign string

	// Trial labels emitted incident records with the supervised run's index
	// — the serving fleet sets it to the request id so incidents from many
	// supervised requests stay distinguishable. Variant identity is carried
	// by each record's Seed.
	Trial int
}

// New builds n variants of module m under cfg with seeds baseSeed,
// baseSeed+1, ...
func New(m *tir.Module, cfg defense.Config, n int, baseSeed uint64, prof *vm.Profile) (*Engine, error) {
	if n < 2 {
		return nil, fmt.Errorf("mvee: need at least two variants, got %d", n)
	}
	e := &Engine{prof: prof}
	for i := 0; i < n; i++ {
		proc, err := sim.Build(m, cfg, baseSeed+uint64(i), nil)
		if err != nil {
			return nil, fmt.Errorf("mvee: variant %d: %w", i, err)
		}
		e.Variants = append(e.Variants, &Variant{
			Seed: baseSeed + uint64(i),
			Proc: proc,
			Mach: vm.New(proc, prof),
		})
	}
	return e, nil
}

// Verdict is the engine's judgment of one supervised run.
type Verdict struct {
	// Diverged is true when the variants' observable behaviour differed —
	// the MVEE's detection signal.
	Diverged bool
	// Reason describes the first divergence.
	Reason string
	// Trapped is true when any variant detonated a booby trap (the R2C
	// reactive signal, which the MVEE also surfaces).
	Trapped bool
	// Hung lists the variants that were still running when the
	// sliceInstrs × maxSlices budget expired — a liveness divergence (an
	// attacker could hide a hijacked variant behind an infinite loop, as in
	// crash/hang-tolerant brute-force probing). Their Results slots stay
	// nil.
	Hung []int
	// Errs records each variant's simulator-level error text ("" = clean
	// finish). Recording it on the verdict keeps an errored variant from
	// ever comparing silently equal to a clean one; two variants that fail
	// with the identical error are considered to agree.
	Errs []string
	// Results holds each variant's execution result; a slot is nil only
	// for a hung variant or a simulator error that produced no result.
	Results []*vm.Result
}

// Detected reports whether the supervisor would raise an alarm.
func (v *Verdict) Detected() bool { return v.Diverged || v.Trapped }

// Run executes each variant for at most sliceInstrs × maxSlices instructions
// and compares their observable event streams. Lockstep is the cost model
// (the slowest variant sets the service time), not the execution order:
// variants share no machine, process or memory, so each runs to its end or
// its budget in turn, and the order changes nothing any of them retires. A
// variant still running when the budget expires is reported as a liveness
// divergence on the Verdict — never as an engine error — so a hung variant
// cannot stall the comparison forever, and the traps and incidents recorded
// by the variants that did finish survive alongside the hang signal. A
// simulator-level error in one variant (a division by zero only that layout
// reaches) is likewise a divergence, recorded as the variant's Errs text.
func (e *Engine) Run(sliceInstrs, maxSlices int) (*Verdict, error) {
	if sliceInstrs <= 0 {
		sliceInstrs = 200_000
	}
	if maxSlices <= 0 {
		maxSlices = 10_000
	}
	budget := uint64(sliceInstrs) * uint64(maxSlices)
	n := len(e.Variants)
	v := &Verdict{Results: make([]*vm.Result, n), Errs: make([]string, n)}
	hung := make([]bool, n)
	for i, va := range e.Variants {
		res, err := va.Mach.Run(budget)
		if err != vm.ErrFuelExhausted {
			if err != nil {
				// Simulator-level error (e.g. the variant crashed into a
				// division by zero only one layout reaches): a divergence.
				// Record the error text so the comparison below can never
				// mistake the errored run for a clean one, and tolerate a
				// nil result — an errored variant is not "unfinished".
				v.Errs[i] = err.Error()
			}
			v.Results[i] = res
			continue
		}
		// Liveness divergence: a variant that exhausted the budget is a
		// detection signal (an attacker could hide behind a hang), not an
		// engine failure that would discard the whole verdict.
		hung[i] = true
		v.Hung = append(v.Hung, i)
		v.Diverged = true
		reason := fmt.Sprintf("variant %d exceeded the slice budget", i)
		if v.Reason == "" {
			v.Reason = reason
		}
		v.Errs[i] = reason
		if e.Incidents != nil {
			e.Incidents.Add(incident.FromDivergence(e.campaign(), va.Proc.Cfg.Name, va.Seed, e.Trial, "mvee", reason, res.Instructions))
		}
	}

	for i, r := range v.Results {
		if r == nil {
			continue
		}
		if r.Trap != nil {
			v.Trapped = true
			if e.Incidents != nil {
				va := e.Variants[i]
				e.Incidents.Add(incident.FromTrap(e.campaign(), va.Proc.Cfg.Name, va.Seed, e.Trial, "mvee", va.Proc, *r.Trap, r.Instructions))
			}
		}
	}

	// Compare the event streams pairwise against variant 0. Error text
	// compares first: an errored variant diverges from a clean one even
	// when both produced no observable output.
	base := v.Results[0]
	for i := 1; i < n; i++ {
		if hung[i] {
			// Already reported (with its own incident) by the liveness pass;
			// comparing its budget-expiry text would double-count it.
			continue
		}
		r := v.Results[i]
		var diff string
		switch {
		case v.Errs[i] != v.Errs[0]:
			diff = fmt.Sprintf("simulator error %q vs %q", v.Errs[i], v.Errs[0])
		case r == nil || base == nil:
			// Hung on both sides (or hung vs errored-with-identical-text);
			// already reported above, nothing left to compare.
			continue
		default:
			diff = compare(base, r)
		}
		if diff != "" {
			v.Diverged = true
			reason := fmt.Sprintf("variant %d vs 0: %s", i, diff)
			if v.Reason == "" {
				v.Reason = reason
			}
			if e.Incidents != nil {
				va := e.Variants[i]
				var instr uint64
				if r != nil {
					instr = r.Instructions
				}
				e.Incidents.Add(incident.FromDivergence(e.campaign(), va.Proc.Cfg.Name, va.Seed, e.Trial, "mvee", reason, instr))
			}
			return v, nil
		}
	}
	return v, nil
}

func (e *Engine) campaign() string {
	if e.Campaign != "" {
		return e.Campaign
	}
	return "mvee"
}

func compare(a, b *vm.Result) string {
	if a.Halted != b.Halted {
		return fmt.Sprintf("halt status %v vs %v", a.Halted, b.Halted)
	}
	if (a.Fault == nil) != (b.Fault == nil) {
		return "one variant faulted"
	}
	if (a.Trap == nil) != (b.Trap == nil) {
		return "one variant detonated a booby trap"
	}
	if a.ExitStatus != b.ExitStatus {
		return fmt.Sprintf("exit status %d vs %d", a.ExitStatus, b.ExitStatus)
	}
	if len(a.Output) != len(b.Output) {
		return fmt.Sprintf("output length %d vs %d", len(a.Output), len(b.Output))
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			return fmt.Sprintf("output word %d: %#x vs %#x", i, a.Output[i], b.Output[i])
		}
	}
	return ""
}

// CorruptAll models an attacker whose malicious input induces the same
// absolute-address write in every variant (the supervisor replicates
// inputs, and a leaked address is only meaningful in the variant it leaked
// from). The corruption lands wherever each diversified layout puts that
// address; the returned slice records the per-variant outcome — landed[i]
// is true when variant i's address space accepted the write, false when it
// faulted (unmapped or protected there). A faulting write is deliberately
// not an error: that asymmetry is exactly what the MVEE later observes,
// and attack-pressure injectors use the record to report ground truth
// about where the corruption actually landed.
func (e *Engine) CorruptAll(addr, value uint64) []bool {
	landed := make([]bool, len(e.Variants))
	for i, va := range e.Variants {
		landed[i] = va.Proc.Space.Write64(addr, value) == nil
	}
	return landed
}
