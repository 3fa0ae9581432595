package attack

import (
	"r2c/internal/defense"
	"r2c/internal/exec"
)

// This file implements the brute-force attacks discussed in Sections 4.1
// and 7.2.3: classic Blind ROP (stop-gadget probing against a restarting
// worker pool) and the heap feng shui refinement of the BTDP analysis.

// BlindROPResult summarizes a Blind ROP campaign.
type BlindROPResult struct {
	// Probes is the number of worker restarts spent.
	Probes int
	// FoundGadget is true when a probe survived (control transferred to a
	// usable instruction without crashing the worker or tripping a trap).
	FoundGadget bool
	// Detections counts probes that detonated a booby trap — each one a
	// defender-visible alarm ("booby traps provide an effective way to
	// penalize such brute force attempts", Section 4.1).
	Detections int
}

// BlindROP mounts the classic stop-gadget scan (Section 4.1): the worker
// pool restarts with an unchanged image, and the attacker overwrites the
// innermost return address with guessed text addresses, observing hang
// (gadget candidate) versus crash. Execute-only memory already denies
// direct reads; the probe needs only crash observations. Against R2C the
// guesses land in interspersed booby-trap functions and prolog traps, so
// the campaign raises alarms long before it finds a gadget.
func BlindROP(eng *exec.Engine, cfg defense.Config, seed uint64, maxProbes int) (*BlindROPResult, error) {
	res := &BlindROPResult{}
	// One scouting pause to learn a code-cluster anchor value (Blind ROP
	// derives its probe range from an unrandomized or leaked base; the
	// value range of the text cluster is obtainable from any leaked code
	// pointer without knowing what it points to).
	scout, err := unobserved(eng, cfg, seed)
	if err != nil {
		return nil, err
	}
	cands, err := scout.RACandidates()
	if err != nil {
		return nil, err
	}
	anchor := cands[scout.Rnd.Intn(len(cands))].Value

	for probe := 0; probe < maxProbes; probe++ {
		res.Probes++
		w, err := unobserved(eng, cfg, seed) // same image: worker restart
		if err != nil {
			return nil, err
		}
		wc, err := w.RACandidates()
		if err != nil {
			return nil, err
		}
		// Guess: a random offset around the anchor, word-granular — the
		// blind scan of nearby text.
		guess := anchor + uint64(int64(w.Rnd.Intn(1<<14))-(1<<13))
		// Overwrite every candidate so the real RA is certainly hit (the
		// blunt variant; the candidate-by-candidate variant is the crash
		// side channel of Section 7.3).
		for _, c := range wc {
			if err := w.Write(c.Addr, guess); err != nil {
				return nil, err
			}
		}
		switch w.ResumeOutcomeOnly() {
		case Detected:
			res.Detections++
		case Failed, Success:
			// The worker survived the transfer: a stop-gadget candidate.
			res.FoundGadget = true
			return res, nil
		}
	}
	return res, nil
}

// FengShuiResult summarizes the heap-grooming refinement of Section 7.2.3.
type FengShuiResult struct {
	// PairsFound is the number of stack heap-pointer pairs exhibiting the
	// allocation-order distance the attacker predicted from its copy.
	PairsFound int
	// SafePicks / BTDPPicks classify the pointers the refined filter kept.
	SafePicks, BTDPPicks int
}

// FengShui implements the Section 7.2.3 observation: "by performing heap
// feng shui an attacker might be able to identify benign heap pointers with
// a known distance to each other". The victim allocates its two objects
// back to back, so in a deterministic allocator their pointers differ by a
// predictable delta; BTDPs are random guard-page offsets and almost never
// pair up. The attacker keeps only pointers that participate in an
// expected-delta pair. R2C's randomized chunk placement weakens the
// predicted delta, which is why the paper calls this attack's
// prerequisites "specific" — the experiment measures exactly how much
// filtering power survives.
func FengShui(eng *exec.Engine, cfg defense.Config, seed uint64, maxDelta uint64) (*FengShuiResult, error) {
	s, err := unobserved(eng, cfg, seed)
	if err != nil {
		return nil, err
	}
	leaks, err := s.LeakStack(2 * 4096)
	if err != nil {
		return nil, err
	}
	cl := s.Classify(leaks)
	res := &FengShuiResult{}
	if cl.Heap == nil {
		return res, nil
	}
	ptrs := dedup(cl.Heap.Values)
	kept := map[uint64]bool{}
	for i := 0; i < len(ptrs); i++ {
		for j := 0; j < len(ptrs); j++ {
			if i == j {
				continue
			}
			d := ptrs[j] - ptrs[i]
			if d > 0 && d <= maxDelta {
				kept[ptrs[i]] = true
				kept[ptrs[j]] = true
			}
		}
	}
	for v := range kept {
		res.PairsFound++
		if s.IsBTDP(v) {
			res.BTDPPicks++
		} else {
			res.SafePicks++
		}
	}
	return res, nil
}
