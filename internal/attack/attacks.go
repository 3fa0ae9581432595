package attack

import (
	"fmt"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/isa"
	"r2c/internal/rng"
	"r2c/internal/rt"
)

// textRange reports whether v looks like a code address, judged against the
// clusters the attacker computed from the stack leak.
func (c *Clusters) textRange(v uint64) bool {
	return c.Text != nil && v >= c.Text.Lo-(4<<20) && v <= c.Text.Hi+(4<<20)
}

// RACandidates scans the paused frame for return-address candidates: the
// first of CandidateRuns, the run of code-range values nearest the stack
// pointer. Without BTRAs the run has length one (the return address itself);
// with BTRAs it contains pre+1+post indistinguishable values (Section 4.1).
func (s *Scenario) RACandidates() ([]Leaked, error) {
	runs, err := s.CandidateRuns()
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("attack: no code-range values on stack")
	}
	return runs[0], nil
}

// PickRA implements the attacker's only remaining option against BTRAs:
// choose uniformly among the candidates (Section 7.2.1). It returns the
// chosen leak; the caller judges it via the oracle.
func (s *Scenario) PickRA() (Leaked, error) {
	cands, err := s.RACandidates()
	if err != nil {
		return Leaked{}, err
	}
	return cands[s.Rnd.Intn(len(cands))], nil
}

// IsRealRA is the oracle judgment: does the leaked value equal a real
// return address of the victim build? (Ground truth; never used by attack
// logic.)
func (s *Scenario) IsRealRA(l Leaked) bool {
	for _, ra := range s.Proc.Img.CallSiteRA {
		if ra == l.Value {
			return true
		}
	}
	return false
}

// IsBTRA is the oracle judgment for booby-trapped values.
func (s *Scenario) IsBTRA(l Leaked) bool {
	return s.Proc.Img.IsBoobyTrapAddr(l.Value)
}

// IsBTDP is the oracle judgment for booby-trapped data pointers: v is one
// of the published BTDPs.
func (s *Scenario) IsBTDP(v uint64) bool {
	for _, b := range s.Proc.BTDPValues {
		if b == v {
			return true
		}
	}
	return false
}

// refCallSiteRA returns the reference copy's return-address value for the
// validate→helper call site — the attacker's basis for computing the
// victim's ASLR slide in a monoculture.
func (s *Scenario) refCallSiteRA() (uint64, bool) {
	pf, ok := s.RefImg.Funcs[SymValidate]
	if !ok {
		return 0, false
	}
	for _, cs := range pf.F.CallSites {
		if cs.Callee == SymHelper {
			ra, ok := s.RefImg.CallSiteRA[cs.ID]
			return ra, ok
		}
	}
	return 0, false
}

// gadgetSpec is an attacker-selected gadget in its reference copy.
type gadgetSpec struct {
	refAddr uint64
	kind    isa.Kind // instruction kind at refAddr
}

// refGadgets picks n "gadget" points from the reference copy's protected
// text (instruction boundaries the attacker intends to reuse).
func (s *Scenario) refGadgets(n int) []gadgetSpec {
	var out []gadgetSpec
	names := s.RefImg.FuncOrder
	for len(out) < n {
		name := names[s.Rnd.Intn(len(names))]
		pf := s.RefImg.Funcs[name]
		if pf.F.BoobyTrap || pf.F.Stub || len(pf.InstrAddrs) < 4 {
			continue
		}
		i := s.Rnd.Intn(len(pf.InstrAddrs))
		out = append(out, gadgetSpec{pf.InstrAddrs[i], pf.F.Instrs[i].Kind})
	}
	return out
}

// judgeTransfer is the oracle for one attacker-computed control transfer
// target in the victim: a booby trap is a detection, a non-instruction or
// unmapped target is a crash, a different instruction than intended is a
// failed gadget, and the intended instruction is a hit.
func (s *Scenario) judgeTransfer(victimAddr uint64, wantKind isa.Kind) Outcome {
	img := s.Proc.Img
	if img.IsBoobyTrapAddr(victimAddr) {
		s.noteForensic("transfer", rt.TrapEvent{Kind: rt.TrapBTRA, PC: victimAddr})
		return Detected
	}
	pf := img.FuncAt(victimAddr)
	if pf == nil {
		return Crashed
	}
	i := pf.InstrIndexAt(victimAddr)
	if i < 0 {
		return Crashed // lands mid-instruction
	}
	in := &pf.F.Instrs[i]
	// Executing an unintended trap (prolog traps) is a detection.
	if in.Kind == isa.KTrap {
		kind := rt.TrapProlog
		if in.BTRA {
			kind = rt.TrapBTRACheck
		}
		s.noteForensic("transfer", rt.TrapEvent{Kind: kind, PC: victimAddr})
		return Detected
	}
	if in.Kind == wantKind {
		return Success
	}
	return Failed
}

// ROP mounts the classic return-oriented attack (Section 2.1): identify a
// return address, derive the victim's ASLR slide from the monoculture
// layout, compute gadget addresses, and verify the chain would execute. It
// requires neither reading text nor any runtime inference — exactly the
// attack code-layout randomization exists to break.
func (s *Scenario) ROP() Outcome {
	ra, err := s.PickRA()
	if err != nil {
		return Failed
	}
	refRA, ok := s.refCallSiteRA()
	if !ok {
		return Failed
	}
	// Mounting the chain takes at least one request round trip; a
	// re-randomizing defense invalidates the leak in the meantime. (The
	// CPH-locator exemption applies only to pointers used verbatim, i.e.
	// AOCR's whole-function reuse — computed gadget addresses always go
	// stale.)
	s.tick()
	if s.Stale(ra) {
		return Crashed // re-randomized between leak and use
	}
	slide := ra.Value - refRA // garbage if ra is a BTRA or layouts diverge
	worst := Success
	for _, g := range s.refGadgets(4) {
		o := s.judgeTransfer(g.refAddr+slide, g.kind)
		if o > worst {
			worst = o
		}
		if o == Detected || o == Crashed {
			return o
		}
	}
	return worst
}

// JITROP mounts direct just-in-time code reuse (Section 2.1): follow a
// leaked code pointer and read gadgets out of the text section at runtime.
// Execute-only memory stops the read itself.
func (s *Scenario) JITROP() Outcome {
	ra, err := s.PickRA()
	if err != nil {
		return Failed
	}
	// Read a window of text around the leaked pointer.
	probe := ra.Value &^ 7
	for off := uint64(0); off < 256; off += 8 {
		if _, err := s.Read(probe + off); err != nil {
			// Execute-only memory: the disclosure faults.
			return Crashed
		}
	}
	s.tick()
	if s.Stale(ra) {
		return Crashed
	}
	// With readable text the attacker harvests real victim addresses, so
	// gadget locations are exact; the chain succeeds unless the leaked
	// anchor was itself a booby trap (the window read above would already
	// be inside a trap function's neighbourhood — judge by anchor).
	if s.IsBTRA(ra) {
		s.noteForensic("transfer", rt.TrapEvent{Kind: rt.TrapBTRA, PC: ra.Value})
		return Detected
	}
	return Success
}

// IndirectJITROP mounts indirect JIT-ROP (Section 2.1): no text reads;
// infer gadget addresses from a leaked return address plus intra-function
// offsets taken from the monoculture copy. Fine-grained randomization (NOP
// insertion) breaks the offsets even when function shuffling alone would
// not.
func (s *Scenario) IndirectJITROP() Outcome {
	ra, err := s.PickRA()
	if err != nil {
		return Failed
	}
	refRA, ok := s.refCallSiteRA()
	if !ok {
		return Failed
	}
	s.tick()
	if s.Stale(ra) {
		return Crashed
	}
	// Gadgets at small deltas from the return address, chosen in the copy:
	// pick instruction boundaries inside the reference caller function.
	refPF := s.RefImg.Funcs[SymValidate]
	worst := Success
	for k := 0; k < 4; k++ {
		i := s.Rnd.Intn(len(refPF.InstrAddrs))
		delta := int64(refPF.InstrAddrs[i]) - int64(refRA)
		kind := refPF.F.Instrs[i].Kind
		o := s.judgeTransfer(uint64(int64(ra.Value)+delta), kind)
		if o > worst {
			worst = o
		}
		if o == Detected || o == Crashed {
			return o
		}
	}
	return worst
}

// PIROPAdjust mounts position-independent code reuse (Section 7.2.5):
// corrupt only the low 16 bits of the frame's return address, so no
// absolute address knowledge is needed. The attacker aims the partial
// pointer at a reference-copy gadget in the same 64 KiB region; page-aligned
// ASLR preserves the low 12 bits, leaving 4 bits of slide luck, and k is the
// guess for those four bits between page (2^12) and 64 KiB (2^16)
// granularity: the attacker adds k·4096 to the reference gadget's low bits.
// The persistent attack probes all sixteen values across worker restarts.
// Against R2C the attacker additionally cannot tell which candidate word is
// the return address, and NOP insertion shifts the gadget's low bits.
func (s *Scenario) PIROPAdjust(k int) Outcome {
	cands, err := s.RACandidates()
	if err != nil {
		return Failed
	}
	target := cands[s.Rnd.Intn(len(cands))]
	// Choose a gadget near the reference return address.
	if _, ok := s.refCallSiteRA(); !ok {
		return Failed
	}
	refPF := s.RefImg.Funcs[SymValidate]
	i := s.Rnd.Intn(len(refPF.InstrAddrs))
	kind := refPF.F.Instrs[i].Kind
	low := uint16(refPF.InstrAddrs[i] + uint64(k)*4096)
	// Partial overwrite: two low bytes of the chosen stack word. PIROP
	// needs no leaked absolute addresses, so re-randomization between
	// observations does not invalidate anything — the overwrite is
	// relative to whatever is there now.
	if err := s.Proc.Space.Write(target.Addr, []byte{byte(low), byte(low >> 8)}); err != nil {
		return Crashed
	}
	// If the corrupted word was a BTRA, it is never consumed: the partial
	// overwrite silently fizzles and the victim runs on. If it was the
	// real return address, control transfers to the partial pointer.
	if !s.IsRealRA(target) {
		// Run the victim: nothing should happen (failed attempt).
		if o := s.ResumeOutcomeOnly(); o == Success {
			return Success
		}
		return Failed
	}
	newVal := (target.Value &^ 0xffff) | uint64(low)
	return s.judgeTransfer(newVal, kind)
}

// PIROPPersistentForensic retries PIROP across worker restarts, as the real
// attack does (iterative probing and memory massaging, Section 7.2.5). The
// worker restarts with the same image; each attempt is a fresh process
// instance. It returns the first non-Failed outcome (or the worst one after
// maxRestarts) and the forensic hits accumulated across every restart —
// each detection attributed to the trap class and planted artifact that
// caught it.
func PIROPPersistentForensic(eng *exec.Engine, cfg defense.Config, seed uint64, maxRestarts int) (Outcome, []ForensicHit) {
	worst := Failed
	var hits []ForensicHit
	for i := 0; i < maxRestarts; i++ {
		s, err := unobserved(eng, cfg, seed)
		if err != nil {
			return worst, hits
		}
		s.Rnd = rng.New(seed*1000003 + uint64(i)) // new attacker choices per try
		o := s.PIROPAdjust(i % 16)                // probe the ASLR nibble systematically
		hits = append(hits, s.Forensics...)
		if o == Success {
			return Success, hits
		}
		if o == Detected {
			return Detected, hits // the defender reacted; the campaign is burned
		}
		if o == Crashed {
			worst = Crashed
		}
	}
	return worst, hits
}

// CrashSideChannel is the remaining attack surface of Section 7.3: with a
// restarting worker that reuses its binary image, the attacker overwrites
// return-address candidates with zero one restart at a time; the candidate
// whose corruption crashes the worker is the real return address. Booby
// traps do not stop it because corrupted BTRAs are never consumed. Load
// time re-randomization (freshSeedPerRestart) defeats it: positions change
// every restart, so observations do not accumulate.
//
// It returns the attempts used, whether the RA was identified, and the
// outcome of the final verification restart.
func (s *Scenario) CrashSideChannel(maxRestarts int, freshSeedPerRestart bool) (int, bool, Outcome) {
	cands, err := s.RACandidates()
	if err != nil {
		return 0, false, Failed
	}
	order := s.Rnd.Perm(len(cands))
	attempts := 0
	for _, idx := range order {
		attempts++
		if attempts > maxRestarts {
			break
		}
		// Restart the worker: a fresh scenario. Same seed = same layout
		// (the nginx/Apache worker-restart behaviour, Section 4); fresh
		// seed models load-time re-randomization.
		seed := s.restartSeed(attempts, freshSeedPerRestart)
		w, err := unobserved(s.eng, s.Cfg, seed)
		if err != nil {
			return attempts, false, Failed
		}
		wCands, err := w.RACandidates()
		if err != nil || len(wCands) != len(cands) {
			continue
		}
		probe := wCands[idx]
		if err := w.Write(probe.Addr, 0); err != nil {
			continue
		}
		o := w.ResumeOutcomeOnly()
		if o == Crashed || o == Detected {
			// This candidate's corruption killed the worker — it is the
			// real return address if (and only if) layouts are stable
			// across restarts. Verify on three further restarts; under
			// load-time re-randomization the position does not reproduce.
			identified := true
			for k := 1; k <= 3; k++ {
				v, err := unobserved(s.eng, s.Cfg, s.restartSeed(attempts+k, freshSeedPerRestart))
				if err != nil {
					return attempts, false, Failed
				}
				vCands, err := v.RACandidates()
				if err != nil || idx >= len(vCands) || !v.IsRealRA(vCands[idx]) {
					identified = false
					break
				}
			}
			return attempts, identified, o
		}
	}
	return attempts, false, Failed
}

func (s *Scenario) restartSeed(attempt int, fresh bool) uint64 {
	if fresh {
		return uint64(attempt)*0x9e3779b97f4a7c15 + 0xbeef
	}
	return s.baseSeed
}
