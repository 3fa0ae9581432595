package codegen

import (
	"fmt"
	"sync"

	"r2c/internal/defense"
	"r2c/internal/isa"
	"r2c/internal/rng"
	"r2c/internal/tir"
)

// TrapFuncLen is the number of (1-byte) trap instructions in each generated
// booby-trap function. BTRAs point at a random boundary inside one, so they
// share the text section's value range and executing them always traps.
const TrapFuncLen = 8

// maxPostOffset bounds the callee-chosen post-offset in BTRA words.
const maxPostOffset = 6

// scratch keeps lowering buffers between compiles. A compile lowers each
// function into one buffer and copies it out at exact length, so the
// buffer is free again when Compile returns and the next compile reuses
// it, grown to the longest function lowered so far, instead of allocating
// its own. isa.Instr holds no pointer, so a pooled buffer keeps nothing
// alive.
var scratch = sync.Pool{New: func() any { return new([]isa.Instr) }}

// Compile lowers a verified TIR module under the given defense
// configuration. All randomization derives from seed, so recompiling with
// the same seed reproduces the build bit-for-bit and recompiling with a new
// seed re-diversifies it (the paper recompiles each benchmark run with a
// fresh seed, Section 6.2).
func Compile(mod *tir.Module, cfg defense.Config, seed uint64) (*Program, error) {
	if err := mod.Verify(); err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	if cfg.BTRAEnabled() && cfg.BTRAPoolSize <= 0 {
		return nil, fmt.Errorf("codegen: BTRAs enabled with empty booby-trap pool")
	}
	if cfg.BTRASetup == defense.BTRAAVX2 && cfg.VectorWidthBits != 256 && cfg.VectorWidthBits != 512 {
		return nil, fmt.Errorf("codegen: unsupported vector width %d", cfg.VectorWidthBits)
	}

	p := &Program{Module: mod, Config: cfg, Seed: seed}
	p.Funcs = make([]*Func, 0, len(mod.Funcs)+4+max(cfg.BTRAPoolSize, 0)) // + 4 stubs, booby traps
	nsyms := 1 + len(mod.Funcs) + len(mod.Globals) + 4 + max(cfg.BTRAPoolSize, 0)
	p.Syms = make([]string, 1, nsyms)
	p.symIDs = make(map[string]isa.Sym, nsyms)
	p.Intern(mod.Entry) // the linker's _start calls it
	rootRnd := rng.New(seed)

	// Pre-compute every protected function's post-offset so direct call
	// sites can cooperate with their callees (Section 5.1: "For direct call
	// sites, R2C bounds the number of BTRAs after the return address at
	// compile-time to fit into the post-offset").
	postOffsets := map[string]int{}
	if cfg.BTRAEnabled() {
		por := rootRnd.Split()
		for _, f := range mod.Funcs {
			if f.Protected {
				bound := min(maxPostOffset, cfg.BTRAsPerCall)
				postOffsets[f.Name] = por.Intn(bound + 1)
			}
		}
	}

	lw := &lowerer{
		prog:        p,
		cfg:         &cfg,
		mod:         mod,
		postOffsets: postOffsets,
		affected:    map[string]bool{},
		trampolined: map[string]string{},
		calleeSets:  map[string][]AddrWord{},
	}
	buf := scratch.Get().(*[]isa.Instr)
	lw.code = *buf
	if lw.code == nil {
		// A fresh buffer: size it for the longest function at four machine
		// instructions per TIR instruction, so it seldom grows.
		longest := 0
		for _, f := range mod.Funcs {
			n := 0
			for _, b := range f.Blocks {
				n += len(b.Instrs)
			}
			longest = max(longest, n)
		}
		lw.code = make([]isa.Instr, 0, 4*longest)
	}
	defer func() {
		*buf = lw.code[:0]
		scratch.Put(buf)
	}()
	// Section 7.4.2: protected stack-parameter functions reachable from
	// unprotected code either get downgraded (the paper's choice) or, with
	// StackArgTrampolines, keep protection behind an adapter.
	if cfg.OIAEnabled() {
		for name := range affectedStackArgFuncs(mod) {
			if cfg.StackArgTrampolines && directlyCalledFromUnprotected(mod, name) {
				lw.trampolined[name] = StackArgTrampolineSym(name)
				continue
			}
			lw.affected[name] = true
			postOffsets[name] = 0
		}
	}
	for _, f := range mod.Funcs {
		lw.rnd = rootRnd.Split()
		cf, err := lw.lowerFunc(f)
		if err != nil {
			return nil, fmt.Errorf("codegen: %s: %w", f.Name, err)
		}
		p.Funcs = append(p.Funcs, cf)
	}

	// Runtime stubs: the simulated unprotected libc (Section 6.2 compiles
	// against the unprotected system glibc).
	for _, s := range []struct {
		name string
		sys  isa.Sys
	}{
		{StubMalloc, isa.SysAlloc},
		{StubFree, isa.SysFree},
		{StubOutput, isa.SysOutput},
		{StubExit, isa.SysExit},
	} {
		p.Funcs = append(p.Funcs, &Func{
			Name: s.name,
			Stub: true,
			Instrs: []isa.Instr{
				{Kind: isa.KSys, Sys: s.sys, LocalTarget: -1},
				{Kind: isa.KRet, LocalTarget: -1},
			},
		})
	}

	// Booby-trap functions for BTRAs to point into: the shared pool's,
	// then any beyond it.
	if cfg.BTRAEnabled() {
		for i := range cfg.BTRAPoolSize {
			if i < len(sharedTraps) {
				p.Funcs = append(p.Funcs, &sharedTraps[i])
			} else {
				p.Funcs = append(p.Funcs, newTrapFunc(i))
			}
		}
	}

	// CPH trampolines (Readactor baseline): code pointers target these
	// jump stubs in execute-only memory instead of function entries.
	if cfg.CPH {
		for _, f := range mod.Funcs {
			if !f.Protected {
				continue
			}
			p.Funcs = append(p.Funcs, &Func{
				Name: TrampolineSym(f.Name),
				Instrs: []isa.Instr{
					{Kind: isa.KJmp, Sym: p.Intern(f.Name), LocalTarget: -1},
				},
			})
		}
	}
	// Emit the Section 7.4.2 adapters.
	for callee := range lw.trampolined {
		cf := p.Func(callee)
		tf := lw.mod.Func(callee)
		if cf == nil || tf == nil {
			return nil, fmt.Errorf("codegen: trampoline target %q missing", callee)
		}
		p.Funcs = append(p.Funcs, buildStackArgTrampoline(cf, tf.NParams, p.Intern(callee)))
	}
	p.NumCallSites = lw.nextCallSite
	for _, f := range p.Funcs {
		if !f.BoobyTrap {
			f.BlockStarts = BlockBoundaries(f.Instrs)
		}
	}
	return p, nil
}

// trapBody is the body every booby-trap function shares: TrapFuncLen traps,
// and trapStarts its block leaders. Both are read-only. Nothing writes a
// booby-trap function's Instrs after Compile: image.resolve patches only
// instructions with a symbol, a return-address operand or a local jump
// target, which a KTrap never has, and Image.Reroll copies only functions
// holding BTRA pushes.
var (
	trapBody = func() (b [TrapFuncLen]isa.Instr) {
		for i := range b {
			b[i] = isa.Instr{Kind: isa.KTrap, LocalTarget: -1}
		}
		return b
	}()
	trapStarts = BlockBoundaries(trapBody[:])
)

// sharedTraps are booby-trap functions 0..255, built once and shared by
// every Compile whose pool holds them (R2CFull's pool is 256): function i
// is the same in every build. They are read-only like trapBody; Compile
// skips them when it fills in BlockStarts.
var sharedTraps = func() (fs [256]Func) {
	for i := range fs {
		fs[i] = *newTrapFunc(i)
	}
	return fs
}()

// newTrapFunc returns booby-trap function i over the shared body.
func newTrapFunc(i int) *Func {
	return &Func{Name: trapSym(i), BoobyTrap: true, Instrs: trapBody[:], BlockStarts: trapStarts}
}

// directlyCalledFromUnprotected reports whether any unprotected function
// contains a direct call to name.
func directlyCalledFromUnprotected(mod *tir.Module, name string) bool {
	for _, f := range mod.Funcs {
		if f.Protected {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == tir.OpCall && in.Sym == name {
					return true
				}
			}
		}
	}
	return false
}

// lowerer carries per-module and per-function lowering state.
type lowerer struct {
	prog *Program
	cfg  *defense.Config
	mod  *tir.Module
	rnd  *rng.RNG

	postOffsets map[string]int
	// affected are the Section 7.4.2 downgraded functions: compiled with
	// baseline stack-parameter access and no post-offset; call sites to
	// them get neither BTRAs nor the OIA rbp dance.
	affected map[string]bool
	// trampolined maps downgrade-exempt functions to their adapter symbol
	// (unprotected direct callers are redirected there).
	trampolined  map[string]string
	nextCallSite int
	// calleeSets caches per-callee BTRA sets for the InsecureCalleeBTRAs
	// ablation (property C of Section 4.1).
	calleeSets map[string][]AddrWord

	// Per-function state.
	f           *tir.Function
	tailEmitted bool // the last lowered op was a tail call; skip its OpRet
	out         *Func
	// code is the instruction buffer every function is lowered into,
	// reused across functions; lowerFunc copies it out at exact length.
	code         []isa.Instr
	alloc        allocation
	localOff     []int64 // TIR local index -> frame offset
	spillOff     []int64 // spill slot -> frame offset
	btdpOff      []int64 // BTDP slot -> frame offset
	spOffset     int64   // rsp displacement below frame base (inside call sequences)
	blockLabel   []int   // TIR block -> lowered instruction index
	pendingJumps []int   // lowered indices whose LocalTarget is a TIR block id
}

func (lw *lowerer) emit(in isa.Instr) int {
	if in.LocalTarget == 0 && in.Kind != isa.KJmp && in.Kind != isa.KJz && in.Kind != isa.KJnz {
		in.LocalTarget = -1
	}
	lw.code = append(lw.code, in)
	// Track the stack pointer for rsp-relative slot addressing inside call
	// sequences.
	switch in.Kind {
	case isa.KPush, isa.KPushImm:
		lw.spOffset += 8
	case isa.KPop:
		lw.spOffset -= 8
	case isa.KAluImm:
		if in.Dst == isa.RSP {
			switch in.Alu {
			case isa.AluSub:
				lw.spOffset += int64(in.Imm)
			case isa.AluAdd:
				lw.spOffset -= int64(in.Imm)
			}
		}
	}
	return len(lw.code) - 1
}

// slotDisp returns the current rsp-relative displacement of a frame offset.
func (lw *lowerer) slotDisp(frameOff int64) int64 { return frameOff + lw.spOffset }

// regOf materializes vreg v in a machine register: its home register if it
// has one, otherwise a load into scratch.
func (lw *lowerer) regOf(v tir.Reg, scratch isa.Reg) isa.Reg {
	l := lw.alloc.locs[v]
	if !l.spilled {
		return l.reg
	}
	lw.emit(isa.Instr{Kind: isa.KLoad, Dst: scratch, Base: isa.RSP, Disp: lw.slotDisp(lw.spillOff[l.slot])})
	return scratch
}

// writeBack stores a machine register into vreg v's home.
func (lw *lowerer) writeBack(v tir.Reg, from isa.Reg) {
	l := lw.alloc.locs[v]
	if !l.spilled {
		if l.reg != from {
			lw.emit(isa.Instr{Kind: isa.KMovReg, Dst: l.reg, Src: from})
		}
		return
	}
	lw.emit(isa.Instr{Kind: isa.KStore, Base: isa.RSP, Disp: lw.slotDisp(lw.spillOff[l.slot]), Src: from})
}

func (lw *lowerer) lowerFunc(f *tir.Function) (*Func, error) {
	cfg := lw.cfg
	lw.f = f
	lw.out = &Func{Name: f.Name, Protected: f.Protected}
	lw.spOffset = 0
	lw.tailEmitted = false
	lw.code = lw.code[:0]
	lw.pendingJumps = lw.pendingJumps[:0]
	lw.blockLabel = make([]int, len(f.Blocks))

	lw.alloc = allocate(f, cfg.RandomizeRegAlloc, lw.rnd.Split())

	out := lw.out
	out.NumStackParams = f.NParams - len(isa.ArgRegs)
	if out.NumStackParams < 0 {
		out.NumStackParams = 0
	}
	if f.Protected && cfg.BTRAEnabled() && !lw.affected[f.Name] {
		out.PostOffset = lw.postOffsets[f.Name]
	}
	out.CalleeSaved = lw.alloc.usedPool
	out.RegAllocOrder = lw.alloc.poolOrder

	// BTDP count (Section 5.2: "How many BTDPs are written per function is
	// chosen randomly using compile-time parameters", 0..max; the
	// optimization skips functions without stack allocations).
	hasStackAllocs := len(f.Locals) > 0 || lw.alloc.numSpills > 0
	if cfg.BTDP && f.Protected && (hasStackAllocs || !cfg.BTDPSkipNoStackFuncs) {
		out.NumBTDPs = lw.rnd.Intn(cfg.BTDPMaxPerFunc + 1)
	}

	// Prolog traps (Section 4.3: 1..5 traps per prolog).
	if cfg.PrologTrapMax > 0 && f.Protected {
		out.NumPrologTraps = lw.rnd.IntRange(cfg.PrologTrapMin, cfg.PrologTrapMax)
	}

	lw.layoutFrame()
	lw.emitPrologue()

	for bi, b := range f.Blocks {
		lw.blockLabel[bi] = len(lw.code)
		for _, in := range b.Instrs {
			if err := lw.lowerInstr(in); err != nil {
				return nil, err
			}
		}
		if lw.spOffset != 0 {
			return nil, fmt.Errorf("block %d ends with unbalanced stack (%d)", bi, lw.spOffset)
		}
	}

	// Resolve intra-function jumps from TIR block ids to instruction
	// indices.
	for _, idx := range lw.pendingJumps {
		lw.code[idx].LocalTarget = int32(lw.blockLabel[lw.code[idx].LocalTarget])
	}
	// Between two local slices, make then copy compiles to an allocation
	// that, Instr holding no pointer, is not zeroed before the copy.
	code := lw.code
	instrs := make([]isa.Instr, len(code))
	copy(instrs, code)
	out.Instrs = instrs
	return out, nil
}

// layoutFrame assigns frame offsets to locals, spill slots and BTDP slots,
// randomizing their order when stack-slot randomization is enabled, and
// pads the frame so the stack stays 16-byte aligned at call sites.
func (lw *lowerer) layoutFrame() {
	f, out, cfg := lw.f, lw.out, lw.cfg

	type protoSlot struct {
		kind SlotKind
		size uint64
		idx  int
	}
	slots := make([]protoSlot, 0, len(f.Locals)+lw.alloc.numSpills+out.NumBTDPs)
	for i, l := range f.Locals {
		size := (l.Size + 7) &^ 7
		if size == 0 {
			size = 8
		}
		slots = append(slots, protoSlot{SlotLocal, size, i})
	}
	for i := 0; i < lw.alloc.numSpills; i++ {
		slots = append(slots, protoSlot{SlotSpill, 8, i})
	}
	for i := 0; i < out.NumBTDPs; i++ {
		slots = append(slots, protoSlot{SlotBTDP, 8, i})
	}

	// Stack-slot randomization: permute the slot order. BTDP slots are
	// "allocated like stack slots for local variables. As a result, stack
	// slot randomization shuffles BTDPs with other stack objects" (§5.2).
	if cfg.ShuffleStackSlots {
		lw.rnd.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	}

	lw.localOff = make([]int64, len(f.Locals))
	lw.spillOff = make([]int64, lw.alloc.numSpills)
	lw.btdpOff = make([]int64, out.NumBTDPs)
	out.Slots = make([]Slot, 0, len(slots)+1) // + alignment padding
	var off int64
	for _, s := range slots {
		switch s.kind {
		case SlotLocal:
			lw.localOff[s.idx] = off
		case SlotSpill:
			lw.spillOff[s.idx] = off
		case SlotBTDP:
			lw.btdpOff[s.idx] = off
		}
		out.Slots = append(out.Slots, Slot{Kind: s.kind, Offset: off, Size: s.size})
		off += int64(s.size)
	}

	// Alignment: the machine convention is rsp % 16 == 0 in function
	// bodies (so call sites start aligned) and rsp % 16 == 8 at function
	// entry. Entry rsp is S-(pre+1)*8 with pre even; then the prologue
	// subtracts post*8, pushes nPush words, and subtracts the frame.
	nPush := len(out.CalleeSaved)
	target := (8 * int64(1+nPush+out.PostOffset)) % 16
	pad := (target - off%16 + 16) % 16
	if pad > 0 {
		out.Slots = append(out.Slots, Slot{Kind: SlotPad, Offset: off, Size: uint64(pad)})
		off += pad
	}
	out.FrameSize = off
}

func (lw *lowerer) emitPrologue() {
	out, cfg := lw.out, lw.cfg

	// Prolog traps, hidden behind a jump: normal control flow skips them;
	// an attacker computing gadget addresses relative to a leaked function
	// pointer lands in them (Section 4.3).
	if out.NumPrologTraps > 0 {
		lw.emit(isa.Instr{Kind: isa.KJmp, LocalTarget: int32(out.NumPrologTraps + 1)})
		for i := 0; i < out.NumPrologTraps; i++ {
			lw.emit(isa.Instr{Kind: isa.KTrap, LocalTarget: -1})
		}
	}

	// Step 4 of Figure 3: the callee protects the BTRAs below its return
	// address from its own spills by lowering rsp by the post-offset.
	if out.PostOffset > 0 {
		lw.emit(isa.Instr{Kind: isa.KAluImm, Alu: isa.AluSub, Dst: isa.RSP, Imm: uint64(out.PostOffset * 8)})
	}
	// The post-offset subtraction must not count toward slot addressing:
	// frame offsets are relative to post-prologue rsp.
	lw.spOffset = 0

	for _, r := range out.CalleeSaved {
		lw.emit(isa.Instr{Kind: isa.KPush, Src: r})
	}
	if out.FrameSize > 0 {
		lw.emit(isa.Instr{Kind: isa.KAluImm, Alu: isa.AluSub, Dst: isa.RSP, Imm: uint64(out.FrameSize)})
	}
	lw.spOffset = 0 // frame base established; offsets are rsp-relative

	// StackArmor-style zero initialization.
	if cfg.ZeroInitStack && out.FrameSize > 0 {
		lw.emit(isa.Instr{Kind: isa.KMovImm, Dst: isa.RAX, Imm: 0})
		for o := int64(0); o < out.FrameSize; o += 8 {
			lw.emit(isa.Instr{Kind: isa.KStore, Base: isa.RSP, Disp: o, Src: isa.RAX})
		}
	}

	// BTDP writes (Section 5.2). Hardened layout: the data section holds
	// only a pointer to the heap-allocated BTDP array; naive ablation: the
	// array itself is in the data section (Figure 5).
	if out.NumBTDPs > 0 {
		if cfg.BTDPNaiveDataArray {
			lw.emit(isa.Instr{Kind: isa.KMovImm, Dst: isa.R10, Sym: lw.prog.Intern(SymBTDPArray)})
		} else {
			lw.emit(isa.Instr{Kind: isa.KMovImm, Dst: isa.R10, Sym: lw.prog.Intern(SymBTDPArrayPtr)})
			lw.emit(isa.Instr{Kind: isa.KLoad, Dst: isa.R10, Base: isa.R10})
		}
		for i := 0; i < out.NumBTDPs; i++ {
			idx := lw.rnd.Intn(cfg.BTDPArrayLen)
			lw.emit(isa.Instr{Kind: isa.KLoad, Dst: isa.R11, Base: isa.R10, Disp: int64(idx) * 8})
			lw.emit(isa.Instr{Kind: isa.KStore, Base: isa.RSP, Disp: lw.btdpOff[i], Src: isa.R11})
		}
	}

	// Move parameters to their homes.
	for i := 0; i < lw.f.NParams && i < len(isa.ArgRegs); i++ {
		lw.writeBack(tir.Reg(i), isa.ArgRegs[i])
	}
	for j := len(isa.ArgRegs); j < lw.f.NParams; j++ {
		// Stack parameter. Under offset-invariant addressing the caller
		// parked rbp at the first stack argument (Section 5.1.1). Without
		// OIA the baseline omits the frame pointer entirely and reads the
		// argument rsp-relative — static, because without BTRAs the
		// distance to the arguments above the return address is fixed.
		argIdx := int64(j - len(isa.ArgRegs))
		if cfg.OIAEnabled() && !lw.affected[lw.f.Name] {
			lw.emit(isa.Instr{Kind: isa.KLoad, Dst: isa.R10, Base: isa.RBP, Disp: argIdx * 8})
		} else {
			disp := out.FrameSize + int64(len(out.CalleeSaved))*8 + 8 + argIdx*8
			lw.emit(isa.Instr{Kind: isa.KLoad, Dst: isa.R10, Base: isa.RSP, Disp: disp + lw.spOffset})
		}
		lw.writeBack(tir.Reg(j), isa.R10)
	}
}

// emitEpilogue tears the frame down in Figure 3 order and leaves the
// function through exit (a ret, or a tail call's jump).
func (lw *lowerer) emitEpilogue(exit isa.Instr) {
	out := lw.out
	if out.FrameSize > 0 {
		lw.emit(isa.Instr{Kind: isa.KAluImm, Alu: isa.AluAdd, Dst: isa.RSP, Imm: uint64(out.FrameSize)})
	}
	for i := len(out.CalleeSaved) - 1; i >= 0; i-- {
		lw.emit(isa.Instr{Kind: isa.KPop, Dst: out.CalleeSaved[i]})
	}
	// Step 5 of Figure 3: revert the post-offset so ret pops the real RA.
	if out.PostOffset > 0 {
		lw.emit(isa.Instr{Kind: isa.KAluImm, Alu: isa.AluAdd, Dst: isa.RSP, Imm: uint64(out.PostOffset * 8)})
	}
	lw.emit(exit)
	lw.spOffset = 0
}

var aluFor = map[tir.Op]isa.AluOp{
	tir.OpAdd: isa.AluAdd, tir.OpSub: isa.AluSub, tir.OpMul: isa.AluMul,
	tir.OpDiv: isa.AluDiv, tir.OpRem: isa.AluRem, tir.OpAnd: isa.AluAnd,
	tir.OpOr: isa.AluOr, tir.OpXor: isa.AluXor, tir.OpShl: isa.AluShl,
	tir.OpShr: isa.AluShr,
}

var cmpFor = map[tir.Op]isa.CmpOp{
	tir.OpEq: isa.CmpEq, tir.OpNeq: isa.CmpNeq, tir.OpLt: isa.CmpLt,
	tir.OpLeq: isa.CmpLeq, tir.OpGt: isa.CmpGt, tir.OpGeq: isa.CmpGeq,
}

func (lw *lowerer) lowerInstr(in tir.Instr) error {
	cfg := lw.cfg
	switch {
	case in.Op == tir.OpConst:
		l := lw.alloc.locs[in.Dst]
		if !l.spilled {
			lw.emit(isa.Instr{Kind: isa.KMovImm, Dst: l.reg, Imm: in.Imm})
		} else {
			lw.emit(isa.Instr{Kind: isa.KMovImm, Dst: isa.R10, Imm: in.Imm})
			lw.writeBack(in.Dst, isa.R10)
		}
	case in.Op == tir.OpMov:
		lw.writeBack(in.Dst, lw.regOf(in.A, isa.R10))
	case in.Op.IsBinary():
		if alu, ok := aluFor[in.Op]; ok {
			lw.emit(isa.Instr{Kind: isa.KMovReg, Dst: isa.RAX, Src: lw.regOf(in.A, isa.R10)})
			lw.emit(isa.Instr{Kind: isa.KAlu, Alu: alu, Dst: isa.RAX, Src: lw.regOf(in.B, isa.R10)})
			lw.writeBack(in.Dst, isa.RAX)
		} else {
			a := lw.regOf(in.A, isa.R10)
			b := lw.regOf(in.B, isa.R11)
			lw.emit(isa.Instr{Kind: isa.KSet, Cmp: cmpFor[in.Op], Dst: isa.RAX, A: a, B: b})
			lw.writeBack(in.Dst, isa.RAX)
		}
	case in.Op == tir.OpLoad:
		lw.emit(isa.Instr{Kind: isa.KLoad, Dst: isa.RAX, Base: lw.regOf(in.A, isa.R10), Disp: in.Off})
		lw.writeBack(in.Dst, isa.RAX)
	case in.Op == tir.OpStore:
		addr := lw.regOf(in.A, isa.R10)
		val := lw.regOf(in.B, isa.R11)
		lw.emit(isa.Instr{Kind: isa.KStore, Base: addr, Disp: in.Off, Src: val})
	case in.Op == tir.OpAddrLocal:
		lw.emit(isa.Instr{Kind: isa.KLea, Dst: isa.RAX, Base: isa.RSP, Disp: lw.slotDisp(lw.localOff[in.Local])})
		lw.writeBack(in.Dst, isa.RAX)
	case in.Op == tir.OpAddrGlobal:
		lw.emit(isa.Instr{Kind: isa.KMovImm, Dst: isa.RAX, Sym: lw.prog.Intern(in.Sym)})
		lw.writeBack(in.Dst, isa.RAX)
	case in.Op == tir.OpAddrFunc:
		sym := in.Sym
		if cfg.CPH {
			sym = TrampolineSym(in.Sym)
		}
		lw.emit(isa.Instr{Kind: isa.KMovImm, Dst: isa.RAX, Sym: lw.prog.Intern(sym)})
		lw.writeBack(in.Dst, isa.RAX)
	case in.Op == tir.OpAlloc:
		lw.emitCall(in.Dst, StubMalloc, tir.NoReg, []tir.Reg{in.A}, false)
	case in.Op == tir.OpFree:
		lw.emitCall(tir.NoReg, StubFree, tir.NoReg, []tir.Reg{in.A}, false)
	case in.Op == tir.OpOutput:
		lw.emitCall(tir.NoReg, StubOutput, tir.NoReg, []tir.Reg{in.A}, false)
	case in.Op == tir.OpCall:
		if in.Tail {
			if len(in.Args) > len(isa.ArgRegs) {
				return fmt.Errorf("tail call with stack arguments unsupported")
			}
			lw.emitTailCall(in.Sym, in.Args)
			return nil
		}
		lw.emitCall(in.Dst, in.Sym, in.A, in.Args, false)
	case in.Op == tir.OpBr:
		idx := lw.emit(isa.Instr{Kind: isa.KJmp, LocalTarget: int32(in.Target)})
		lw.pendingJumps = append(lw.pendingJumps, idx)
	case in.Op == tir.OpCondBr:
		cond := lw.regOf(in.A, isa.R10)
		idx := lw.emit(isa.Instr{Kind: isa.KJnz, Src: cond, LocalTarget: int32(in.Target)})
		lw.pendingJumps = append(lw.pendingJumps, idx)
		idx = lw.emit(isa.Instr{Kind: isa.KJmp, LocalTarget: int32(in.Else)})
		lw.pendingJumps = append(lw.pendingJumps, idx)
	case in.Op == tir.OpRet:
		if lw.tailEmitted {
			// The TIR builder pairs every tail call with a Ret terminator;
			// the jump already left the function.
			lw.tailEmitted = false
			return nil
		}
		if in.HasArg {
			if r := lw.regOf(in.A, isa.RAX); r != isa.RAX {
				lw.emit(isa.Instr{Kind: isa.KMovReg, Dst: isa.RAX, Src: r})
			}
		}
		lw.emitEpilogue(isa.Instr{Kind: isa.KRet})
	default:
		return fmt.Errorf("unhandled op %v", in.Op)
	}
	return nil
}

// emitTailCall lowers a tail call: tear down the frame, then jump. No
// return address is pushed, so no BTRAs are inserted (Section 7.1's call
// counting ignores tail calls for the same reason).
func (lw *lowerer) emitTailCall(callee string, args []tir.Reg) {
	for i, a := range args {
		src := lw.regOf(a, isa.R10)
		lw.emit(isa.Instr{Kind: isa.KMovReg, Dst: isa.ArgRegs[i], Src: src})
	}
	if callee == "" {
		// The TIR builder only produces direct tail calls; reaching this
		// means a hand-built module used an unsupported combination.
		panic("codegen: indirect tail calls are not supported")
	}
	lw.emitEpilogue(isa.Instr{Kind: isa.KJmp, Sym: lw.prog.Intern(callee), LocalTarget: -1})
	lw.tailEmitted = true
}
