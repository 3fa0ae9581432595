package sim_test

import (
	"fmt"
	"hash"

	"r2c/internal/image"
	"r2c/internal/isa"
	"r2c/internal/pcode"
)

// v2Op is pcode v2's 64-byte op, field for field, so that binary.Write
// encodes a projected program exactly as it encoded the old one.
type v2Op struct {
	Addr   uint64
	Imm    uint64 // immediates; calls: return address; abs (v)loads: address
	Disp   int64
	Target uint64
	TIdx   int32
	RAIdx  int32 // calls: dense index of the return-address site (-1: none)
	Block  int32
	FuncIx int32

	Exec  uint8
	Kind  isa.Kind
	Alu   isa.AluOp
	Cmp   isa.CmpOp
	Sys   isa.Sys
	Dst   isa.Reg
	Src   isa.Reg
	Base  isa.Reg
	A, B  isa.Reg
	VDst  isa.VReg
	VSrc  isa.VReg
	Lanes uint8
	Flags uint8
}

// hashImageV2 hashes img as hashImage did when ops were 64 bytes: it
// projects every op back to v2Op, restoring the dropped fields from the
// source instruction and the op after it, and hashes the projection in the
// ops' place. It first checks that each field of the 32-byte op equals its
// derivation from those sources, so a matching v2 digest shows the new
// layout re-encodes the old one and moves no other byte.
func hashImageV2(h hash.Hash, img *image.Image) error {
	code := img.Code
	ops := make([]v2Op, 0, len(code.Ops))
	for fi, name := range img.FuncOrder {
		pf := img.Funcs[name]
		for i := range pf.F.Instrs {
			in, k := &pf.F.Instrs[i], len(ops)
			op := &code.Ops[k]
			if err := checkV3Op(code, k, in, pf.InstrAddrs[i], fi); err != nil {
				return fmt.Errorf("%s instr %d (op %d): %w", name, i, k, err)
			}
			old := v2Op{
				Addr: op.Addr, Imm: in.Imm, Disp: in.Disp, Target: in.Target,
				TIdx: op.TIdx, RAIdx: -1, Block: op.Block, FuncIx: int32(fi),
				Exec: op.Exec, Kind: op.Kind, Alu: in.Alu, Cmp: in.Cmp, Sys: in.Sys,
				Dst: in.Dst, Src: in.Src, Base: in.Base, A: in.A, B: in.B,
				VDst: in.VDst, VSrc: in.VSrc, Lanes: op.Lanes, Flags: op.Flags,
			}
			switch op.Exec {
			case pcode.XLoadAbs, pcode.XVLoadAbs:
				old.Imm = op.Imm
			case pcode.XCall, pcode.XCallInd:
				ra := code.Ops[k+1].Addr
				old.Imm, old.RAIdx = ra, code.IndexOf(ra)
			}
			ops = append(ops, old)
		}
		s := code.Ops[len(ops)]
		if want := (pcode.Op{Addr: pf.End, Exec: pcode.XFellOff, Kind: isa.KNop, TIdx: -1, Block: s.Block, Flags: s.Flags}); s != want {
			return fmt.Errorf("%s sentinel: %+v, want %+v", name, s, want)
		}
		ops = append(ops, v2Op{
			Addr: s.Addr, TIdx: -1, RAIdx: -1, Block: s.Block, FuncIx: int32(fi),
			Exec: s.Exec, Kind: s.Kind, Flags: s.Flags,
		})
	}
	if len(ops) != len(code.Ops) {
		return fmt.Errorf("projected %d ops, program has %d", len(ops), len(code.Ops))
	}
	return hashImageOps(h, img, ops)
}

// checkV3Op checks that op k of code is the 32-byte encoding of in, placed
// at addr in function fi: Imm holds the wide operand its exec code names,
// the shared register and suboperation bytes hold the operands the exec
// code reads, a call's return address is the next op's Addr, a resolved
// target's op sits at that target, and FuncOf finds fi.
func checkV3Op(code *pcode.Program, k int, in *isa.Instr, addr uint64, fi int) error {
	op := &code.Ops[k]
	imm, sub, dst, src, base := in.Imm, int8(0), in.Dst, in.Src, in.Base
	switch op.Exec {
	case pcode.XLoadAbs, pcode.XVLoadAbs:
		imm = in.Target + uint64(in.Disp)
	case pcode.XLoadBase, pcode.XStore, pcode.XLea, pcode.XVLoadBase:
		imm = uint64(in.Disp)
	case pcode.XVStore, pcode.XVStoreA:
		imm = uint64(in.Disp)
		if in.Base == isa.NoGPR {
			imm += in.Target
		}
	case pcode.XCall, pcode.XJmp, pcode.XJz, pcode.XJnz:
		imm = in.Target
	}
	switch op.Exec {
	case pcode.XAluAddRR, pcode.XAluAddRI, pcode.XAluSubRR, pcode.XAluSubRI, pcode.XAluRR, pcode.XAluRI:
		sub = int8(in.Alu)
	case pcode.XSet:
		sub, src, base = int8(in.Cmp), in.A, in.B
	case pcode.XSys:
		sub = int8(in.Sys)
	case pcode.XVLoadAbs, pcode.XVLoadBase:
		dst = isa.Reg(in.VDst)
	case pcode.XVStore, pcode.XVStoreA:
		src = isa.Reg(in.VSrc)
	}
	if op.Addr != addr || op.Kind != in.Kind || op.Imm != imm || op.Sub != sub ||
		op.Dst != dst || op.Src != src || op.Base != base {
		return fmt.Errorf("op %+v does not encode %+v at %#x", *op, *in, addr)
	}
	if (op.Exec == pcode.XCall || op.Exec == pcode.XCallInd) && code.Ops[k+1].Addr != addr+uint64(in.EncodedSize()) {
		return fmt.Errorf("next op at %#x, not at the return address", code.Ops[k+1].Addr)
	}
	if op.TIdx >= 0 && code.Ops[op.TIdx].Addr != op.Imm {
		return fmt.Errorf("TIdx %d at %#x, target %#x", op.TIdx, code.Ops[op.TIdx].Addr, op.Imm)
	}
	if got := code.FuncOf(addr); got != fi {
		return fmt.Errorf("FuncOf(%#x) = %d, want %d", addr, got, fi)
	}
	return nil
}
