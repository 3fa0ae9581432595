package codegen

import (
	"slices"

	"r2c/internal/isa"
	"r2c/internal/tir"
)

// This file implements Section 7.4.2: calling functions with stack
// arguments across the protection boundary. Code not compiled by R2C uses
// the standard calling convention — it cannot park rbp at the first stack
// argument the way offset-invariant addressing expects — so a protected
// callee with stack parameters would read garbage when invoked from
// unprotected code (the three cases the paper hit in WebKit and Chromium).
//
// Two resolutions are implemented:
//
//   - the paper's default: detect the affected functions and disable BTRAs
//     and OIA for them ("opted for disabling the emission of BTRAs for the
//     affected functions"), falling back to baseline rsp-relative stack-
//     parameter access that every caller satisfies;
//
//   - the paper's sketched alternative: "automatically inserting a
//     trampoline for externally visible functions with stack parameters" —
//     a protected adapter that accepts the standard convention from
//     unprotected callers, re-pushes the stack arguments, parks rbp, and
//     calls the fully protected implementation.

// StackArgTrampolineSym names the Section 7.4.2 adapter for a function.
func StackArgTrampolineSym(fn string) string { return "__sa_tramp_" + fn }

// affectedStackArgFuncs returns the protected functions with stack
// parameters that unprotected code can call: direct callees of unprotected
// functions, plus — when any unprotected function makes indirect calls —
// every protected stack-parameter function whose address escapes (taken via
// AddrFunc or a function-pointer global), the callback case the paper hit
// in WebKit's XML parser.
func affectedStackArgFuncs(mod *tir.Module) map[string]bool {
	stackParams := func(f *tir.Function) bool {
		return f != nil && f.Protected && f.NParams > len(isa.ArgRegs)
	}

	affected := map[string]bool{}
	unprotectedIndirect := false
	for _, f := range mod.Funcs {
		if f.Protected {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != tir.OpCall {
					continue
				}
				if in.Sym == "" {
					unprotectedIndirect = true
					continue
				}
				if callee := mod.Func(in.Sym); stackParams(callee) {
					affected[in.Sym] = true
				}
			}
		}
	}
	if unprotectedIndirect {
		escapes := map[string]bool{}
		for _, g := range mod.Globals {
			if g.InitFunc != "" {
				escapes[g.InitFunc] = true
			}
			for _, fn := range g.InitFuncs {
				escapes[fn] = true
			}
		}
		for _, f := range mod.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op == tir.OpAddrFunc {
						escapes[in.Sym] = true
					}
				}
			}
		}
		for name := range escapes {
			if stackParams(mod.Func(name)) {
				affected[name] = true
			}
		}
	}
	return affected
}

// buildStackArgTrampoline hand-lowers the Section 7.4.2 adapter for callee:
// it is entered with the standard convention (register args in place, stack
// args just above the return address), re-pushes the stack arguments, parks
// rbp at the first one per offset-invariant addressing, and calls the
// protected implementation, calleeSym. Register arguments pass through
// untouched.
func buildStackArgTrampoline(callee *Func, nParams int, calleeSym isa.Sym) *Func {
	nStack := nParams - len(isa.ArgRegs)
	tr := &Func{Name: StackArgTrampolineSym(callee.Name), Protected: true}
	emit := func(in isa.Instr) {
		if in.LocalTarget == 0 {
			in.LocalTarget = -1
		}
		tr.Instrs = append(tr.Instrs, in)
	}

	// Entry: rsp -> RA; incoming stack arg j at rsp + 8 + j*8.
	emit(isa.Instr{Kind: isa.KPush, Src: isa.RBP})
	pushed := 1
	// Alignment: entry rsp ≡ 8 (mod 16); the inner call needs ≡ 0, i.e. an
	// odd total push count.
	pad := 0
	if (1+nStack)%2 == 0 {
		pad = 1
		emit(isa.Instr{Kind: isa.KPushImm, Imm: 0})
		pushed++
	}
	for j := nStack - 1; j >= 0; j-- {
		disp := int64(8 + j*8 + pushed*8)
		emit(isa.Instr{Kind: isa.KLoad, Dst: isa.R10, Base: isa.RSP, Disp: disp})
		emit(isa.Instr{Kind: isa.KPush, Src: isa.R10})
		pushed++
	}
	emit(isa.Instr{Kind: isa.KLea, Dst: isa.RBP, Base: isa.RSP, Disp: 0})
	emit(isa.Instr{Kind: isa.KCall, Sym: calleeSym, CallSiteID: -1})
	emit(isa.Instr{Kind: isa.KAluImm, Alu: isa.AluAdd, Dst: isa.RSP, Imm: uint64(nStack * 8)})
	if pad == 1 {
		emit(isa.Instr{Kind: isa.KAluImm, Alu: isa.AluAdd, Dst: isa.RSP, Imm: 8})
	}
	emit(isa.Instr{Kind: isa.KPop, Dst: isa.RBP})
	emit(isa.Instr{Kind: isa.KRet})
	tr.Instrs = slices.Clip(tr.Instrs)
	return tr
}
