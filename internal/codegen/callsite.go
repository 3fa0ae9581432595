package codegen

import (
	"r2c/internal/defense"
	"r2c/internal/isa"
	"r2c/internal/tir"
)

// pickBTRAs selects n booby-trap targets for a call site. Under the
// InsecureCalleeBTRAs ablation the set is keyed by callee so every call
// site to the same function shares it — violating property (C) of Section
// 4.1, which the attack suite exploits.
func (lw *lowerer) pickBTRAs(n int, callee string) []AddrWord {
	if lw.cfg.InsecureCalleeBTRAs {
		key := callee
		if key == "" {
			key = "<indirect>"
		}
		if set, ok := lw.calleeSets[key]; ok && len(set) >= n {
			return set[:n]
		}
		set := lw.freshBTRAs(n)
		lw.calleeSets[key] = set
		return set
	}
	return lw.freshBTRAs(n)
}

func (lw *lowerer) freshBTRAs(n int) []AddrWord {
	out := make([]AddrWord, n)
	for i := range out {
		// Offsets land on (4-byte padded ud2) instruction boundaries inside
		// the trap function, so a triggered BTRA always detonates cleanly.
		out[i] = AddrWord{
			Sym:  lw.prog.Intern(BoobyTrapSym(lw.rnd.Intn(lw.cfg.BTRAPoolSize))),
			Off:  4 * int64(lw.rnd.Intn(TrapFuncLen)),
			BTRA: true,
		}
	}
	return out
}

// emitCall lowers a (non-tail) call. calleeSym == "" means indirect through
// calleeReg. This is where BTRA insertion happens: the caller pushes (or
// vector-stores) randomly chosen BTRAs together with the pre-computed
// return address, positions the stack pointer above the return address
// slot, and lets the CALL instruction overwrite that slot with the very
// same value — so the stack image never changes after the setup and no
// race window exists (Section 5.1).
func (lw *lowerer) emitCall(dst tir.Reg, calleeSym string, calleeReg tir.Reg, args []tir.Reg, tail bool) {
	cfg := lw.cfg
	out := lw.out
	site := CallSite{
		ID:     lw.nextCallSite,
		Caller: lw.f.Name,
		Callee: calleeSym,
		Tail:   tail,
	}
	lw.nextCallSite++

	calleeProtected := false
	if calleeSym != "" {
		if cf := lw.mod.Func(calleeSym); cf != nil {
			calleeProtected = cf.Protected
		}
		// Stubs and other non-module symbols are unprotected.
	} else {
		// Indirect calls are assumed to target protected code.
		calleeProtected = true
	}

	// Section 7.4.2: unprotected direct callers of trampolined functions
	// go through the adapter; downgraded callees are called with the
	// baseline convention and without BTRAs everywhere.
	if !lw.f.Protected && calleeSym != "" {
		if tramp, ok := lw.trampolined[calleeSym]; ok {
			calleeSym = tramp
			site.Callee = tramp
			calleeProtected = true
		}
	}
	calleeDowngraded := calleeSym != "" && lw.affected[calleeSym]

	useBTRA := cfg.BTRAEnabled() && lw.f.Protected && !calleeDowngraded &&
		(calleeProtected || cfg.BTRAUnprotectedCalls)

	// NOP insertion at call sites (Section 4.3): randomizes the offset
	// between the return address and the calling function's start.
	if cfg.NOPMax > 0 && lw.f.Protected {
		site.NumNOPs = lw.rnd.IntRange(cfg.NOPMin, cfg.NOPMax)
		for i := 0; i < site.NumNOPs; i++ {
			lw.emit(isa.Instr{Kind: isa.KNop, LocalTarget: -1})
		}
	}

	// Register arguments.
	nReg := len(args)
	if nReg > len(isa.ArgRegs) {
		nReg = len(isa.ArgRegs)
	}
	for i := 0; i < nReg; i++ {
		src := lw.regOf(args[i], isa.R10)
		lw.emit(isa.Instr{Kind: isa.KMovReg, Dst: isa.ArgRegs[i], Src: src})
	}

	// Stack arguments, with 16-byte alignment padding. Under
	// offset-invariant addressing the caller saves its own rbp and parks
	// rbp at the first stack argument so the callee can address its stack
	// parameters independently of the varying pre-offset (Section 5.1.1).
	nStack := len(args) - nReg
	site.StackArgs = nStack
	// Unprotected callers model code R2C never compiled: they always use
	// the standard convention. Downgraded callees expect it from everyone.
	oia := cfg.OIAEnabled() && lw.f.Protected && !calleeDowngraded
	pad := 0
	if nStack > 0 {
		words := nStack
		if oia {
			words++ // saved rbp
		}
		if words%2 == 1 {
			pad = 1
			lw.emit(isa.Instr{Kind: isa.KPushImm, Imm: 0, LocalTarget: -1})
		}
		if oia {
			lw.emit(isa.Instr{Kind: isa.KPush, Src: isa.RBP})
		}
		for j := len(args) - 1; j >= nReg; j-- {
			src := lw.regOf(args[j], isa.R10)
			lw.emit(isa.Instr{Kind: isa.KPush, Src: src})
		}
		if oia {
			lw.emit(isa.Instr{Kind: isa.KLea, Dst: isa.RBP, Base: isa.RSP, Disp: 0})
		}
	}

	// Materialize an indirect callee after all scratch-clobbering work.
	var ind isa.Reg = isa.NoGPR
	if calleeSym == "" {
		ind = lw.regOf(calleeReg, isa.R11)
	}

	pre, post := 0, 0
	if useBTRA {
		// The callee chooses the post-offset; direct call sites push
		// exactly that many BTRAs below the RA. Indirect call sites cannot
		// synchronize and pick their own count (Section 5.1).
		if calleeSym != "" {
			if calleeProtected {
				post = lw.postOffsets[calleeSym]
			} // unprotected callees would clobber post BTRAs: push none
		} else {
			post = lw.rnd.Intn(min(maxPostOffset, cfg.BTRAsPerCall) + 1)
		}
		preRaw := cfg.BTRAsPerCall - post
		if preRaw < 0 {
			preRaw = 0
		}
		pre = preRaw
		// Alignment BTRA: an odd pre-offset would misalign the stack
		// (Section 5.1: "If the randomly chosen number of BTRAs before the
		// return address is odd, R2C inserts an additional BTRA").
		if pre%2 == 1 {
			pre++
		}
		site.Pre, site.Post = pre, post
		site.BTRAs = lw.pickBTRAs(pre+post, calleeSym)

		switch cfg.BTRASetup {
		case defense.BTRAPush:
			lw.emitPushSetup(&site, pre, post)
		case defense.BTRAAVX2:
			lw.emitAVXSetup(&site, pre, post)
		}
	}

	// The call itself.
	site.CallInstrIndex = len(lw.code)
	if calleeSym != "" {
		lw.emit(isa.Instr{Kind: isa.KCall, Sym: lw.prog.Intern(calleeSym), CallSiteID: int32(site.ID), LocalTarget: -1})
	} else {
		lw.emit(isa.Instr{Kind: isa.KCallInd, Src: ind, CallSiteID: int32(site.ID), LocalTarget: -1})
	}

	// Section 7.3 hardening: before discarding the pre-offset, verify a
	// randomly chosen BTRA above the return-address slot still holds its
	// compile-time value; a mismatch means an attacker has been writing
	// over return-address candidates, and detonates immediately.
	if useBTRA && cfg.CheckBTRAsOnReturn && pre > 0 {
		idx := lw.rnd.Intn(pre)
		b := site.BTRAs[idx]
		// After ret, rsp sits just below the pre BTRAs: BTRAs[0] (the
		// topmost) is at rsp + (pre-1)*8, BTRAs[idx] at rsp+(pre-1-idx)*8.
		lw.emit(isa.Instr{Kind: isa.KLoad, Dst: isa.R10, Base: isa.RSP, Disp: int64(pre-1-idx) * 8})
		lw.emit(isa.Instr{Kind: isa.KMovImm, Dst: isa.R11, Sym: b.Sym, SymOff: b.Off})
		// rax still holds the call's return value: compare in scratch.
		lw.emit(isa.Instr{Kind: isa.KSet, Cmp: isa.CmpEq, Dst: isa.R10, A: isa.R10, B: isa.R11})
		// Skip the detonation when the value matches. The jump target is a
		// final instruction index (not a TIR block), so it bypasses the
		// block fixup.
		lw.emit(isa.Instr{Kind: isa.KJnz, Src: isa.R10, LocalTarget: int32(len(lw.code) + 2)})
		lw.emit(isa.Instr{Kind: isa.KTrap, BTRA: true, LocalTarget: -1})
	}

	// Teardown, in Figure 3 order: the caller reverts the pre-offset (7),
	// then unwinds stack arguments and restores its frame pointer.
	if pre > 0 {
		lw.emit(isa.Instr{Kind: isa.KAluImm, Alu: isa.AluAdd, Dst: isa.RSP, Imm: uint64(pre * 8)})
	}
	if nStack > 0 {
		lw.emit(isa.Instr{Kind: isa.KAluImm, Alu: isa.AluAdd, Dst: isa.RSP, Imm: uint64(nStack * 8)})
		if oia {
			lw.emit(isa.Instr{Kind: isa.KPop, Dst: isa.RBP})
		}
		if pad > 0 {
			lw.emit(isa.Instr{Kind: isa.KAluImm, Alu: isa.AluAdd, Dst: isa.RSP, Imm: 8})
		}
	}

	if dst != tir.NoReg {
		lw.writeBack(dst, isa.RAX)
	}
	out.CallSites = append(out.CallSites, site)
}

// emitPushSetup emits the push-based BTRA sequence (Figure 3a): push the
// pre BTRAs, the return address, and the post BTRAs; then re-position rsp
// one word above the RA slot so CALL overwrites it with the same value.
func (lw *lowerer) emitPushSetup(site *CallSite, pre, post int) {
	for i := 0; i < pre; i++ {
		b := site.BTRAs[i]
		lw.emit(isa.Instr{Kind: isa.KPushImm, Sym: b.Sym, SymOff: b.Off, BTRA: true, LocalTarget: -1})
	}
	lw.emit(isa.Instr{Kind: isa.KPushImm, RetAddr: true, CallSiteID: int32(site.ID), LocalTarget: -1})
	for i := pre; i < pre+post; i++ {
		b := site.BTRAs[i]
		lw.emit(isa.Instr{Kind: isa.KPushImm, Sym: b.Sym, SymOff: b.Off, BTRA: true, LocalTarget: -1})
	}
	// Step 2: position rsp above the return address slot.
	lw.emit(isa.Instr{Kind: isa.KAluImm, Alu: isa.AluAdd, Dst: isa.RSP, Imm: uint64((post + 1) * 8)})
}

// emitAVXSetup emits the vectorized BTRA sequence (Figure 4): bulk-copy a
// call-site specific address array from the data section onto the stack,
// clear vector state, and position rsp above the return address slot. The
// array holds the BTRAs and the return address; storing addresses in the
// data section is safe for the same reason the GOT is (Section 5.1.2).
func (lw *lowerer) emitAVXSetup(site *CallSite, pre, post int) {
	cfg := lw.cfg
	lanes := cfg.VectorWidthBits / 64
	laneBytes := int64(cfg.VectorWidthBits / 8)
	total := pre + 1 + post
	padded := (total + lanes - 1) / lanes * lanes

	// Build the array bottom-up: word j lands at blockBase + j*8 where
	// blockBase = S - padded*8 and S is rsp at sequence start. Bottom
	// words are padding, then post BTRAs, then the RA, then pre BTRAs with
	// the topmost BTRA last.
	words := make([]AddrWord, padded)
	j := 0
	for ; j < padded-total; j++ { // padding: extra booby-trap addresses
		w := lw.freshBTRAs(1)[0]
		words[j] = w
	}
	for i := pre + post - 1; i >= pre; i-- { // post BTRAs, lowest first
		words[j] = site.BTRAs[i]
		j++
	}
	words[j] = AddrWord{RetAddr: true, CallSiteID: int32(site.ID)}
	j++
	for i := pre - 1; i >= 0; i-- { // pre BTRAs; BTRAs[0] ends on top
		words[j] = site.BTRAs[i]
		j++
	}

	site.ArraySym = ArraySym(site.ID)
	lw.prog.Blobs = append(lw.prog.Blobs, &DataBlob{Name: site.ArraySym, Words: words})
	arr := lw.prog.Intern(site.ArraySym)

	chunks := padded / lanes
	for c := 0; c < chunks; c++ {
		lw.emit(isa.Instr{
			Kind: isa.KVLoad, VDst: 13, Base: isa.NoGPR,
			Sym: arr, SymOff: int64(c) * laneBytes,
			Imm: uint64(laneBytes), LocalTarget: -1,
		})
		lw.emit(isa.Instr{
			Kind: isa.KVStore, VSrc: 13, Base: isa.RSP,
			Disp: -int64(padded)*8 + int64(c)*laneBytes,
			Imm:  uint64(laneBytes), LocalTarget: -1,
		})
	}
	// Without vzeroupper the SSE/AVX transition penalty costs up to 50%
	// (Section 5.1.2); OmitVZeroUpper is the ablation demonstrating it.
	if !cfg.OmitVZeroUpper {
		lw.emit(isa.Instr{Kind: isa.KVZeroUpper, LocalTarget: -1})
	}
	if pre > 0 {
		lw.emit(isa.Instr{Kind: isa.KAluImm, Alu: isa.AluSub, Dst: isa.RSP, Imm: uint64(pre * 8)})
	}
}
