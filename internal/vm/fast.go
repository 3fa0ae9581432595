package vm

import (
	"errors"
	"fmt"

	"r2c/internal/isa"
	"r2c/internal/mem"
	"r2c/internal/pcode"
	"r2c/internal/rt"
	"r2c/internal/telemetry"
)

// runFast executes on the predecoded program (image.Code). Per retired
// instruction k it observes the reference order: fetch (exec-permission
// check on a page transition, i-cache access on a line transition), retire
// (Instructions = k), the RSS sample when k%SampleEvery == 0, the i-cache
// flush when k%FlushICacheEvery == 0, then execute.
//
// Structure: the outer loop walks segments — runs of ops inside one basic
// block, from idx up to the nearest of the block end, the budget, and the
// next knob boundary. A segment's prologue fetches its first op with the
// dynamic checks (after a resume or a flush the static fetch-elision flags
// no longer hold), fires the knobs due at it, and charges the architectural
// instruction and class counts for the whole segment up front: from the
// predecoded per-block summary when the segment is a whole block, op by op
// otherwise. A fault, trap or VM error that stops execution mid-segment
// rolls back the unretired suffix exactly. Ops then dispatch, one
// instruction each, through a dense switch with statically elided fetch
// checks.
//
// Cycle accounting (float64) deliberately stays per-op and in program
// order: float addition is not associative, so block-summed charging would
// change Result.Cycles in the low bits. Only the integer counters are
// batched.
func (m *Machine) runFast(code *pcode.Program, maxInstr uint64) (*Result, error) {
	prof, cpu := m.Prof, &m.CPU
	limit := m.res.Instructions + maxInstr

	start := code.IndexOf(cpu.PC)
	if start < 0 {
		if m.Img.FuncAt(cpu.PC) == nil {
			return &m.res, fmt.Errorf("vm: entry %#x not in text", cpu.PC)
		}
		return &m.res, fmt.Errorf("vm: entry %#x not an instruction", cpu.PC)
	}
	idx := int(start)
	ops := code.Ops
	knobs := m.SampleEvery | m.FlushICacheEvery

blocks:
	for {
		op := &ops[idx]
		if op.Exec == pcode.XFellOff {
			// Straight-line execution ran off the function end: reported
			// right after retiring the last instruction, before any budget
			// pause, with the PC still at it.
			cpu.PC = ops[idx-1].Addr
			return m.finish(), fmt.Errorf("vm: fell off the end of %s", code.Funcs[op.FuncIx].Name)
		}
		rem := limit - m.res.Instructions
		if rem == 0 {
			// Pause with the PC at the next instruction so a later Run call
			// resumes exactly here.
			cpu.PC = op.Addr
			return m.finish(), ErrFuelExhausted
		}
		if op.Addr>>mem.PageShift != m.lastExecPage {
			if !m.enterPage(op) {
				return m.finish(), nil // fetch fault: nothing retired
			}
		}
		if line := op.Addr >> 6; line != m.lastLine {
			if m.ic.access(op.Addr) {
				m.res.Cycles += prof.ICacheMissPenalty
				m.res.ICacheStallCycles += prof.ICacheMissPenalty
			}
			m.lastLine = line
		}

		blk := &code.Blocks[op.Block]
		end := int(blk.End)
		if uint64(end-idx) > rem {
			end = idx + int(rem)
		}
		if knobs != 0 {
			if n := m.fireKnobs(); uint64(end-idx) > n {
				end = idx + int(n)
			}
		}
		// Charge the segment's architectural counters up front; any
		// mid-segment stop rolls back the unretired suffix, so the counters
		// are exact at every exit.
		if idx == int(blk.Start) && end == int(blk.End) {
			for _, pk := range code.Classes[blk.ClassOff : blk.ClassOff+uint32(blk.ClassN)] {
				m.res.ClassInstr[pk>>24] += uint64(pk & 0xffffff)
			}
		} else {
			for i := idx; i < end; i++ {
				m.res.ClassInstr[ops[i].Kind]++
			}
		}
		m.res.Instructions += uint64(end - idx)

		for {
			switch op.Exec {
			case pcode.XMovImm:
				cpu.R[op.Dst] = op.Imm
				m.charge(isa.KMovImm, prof.Cost[isa.KMovImm])
				idx++
			case pcode.XMovReg:
				cpu.R[op.Dst] = cpu.R[op.Src]
				m.charge(isa.KMovReg, prof.Cost[isa.KMovReg])
				idx++
			case pcode.XLoadAbs:
				if m.rec != nil && m.rec.NearGuard(op.Imm) {
					// The segment was charged up front; subtract the not-yet-
					// retired suffix so the recorded instruction count is
					// this op's own.
					m.rec.Record(telemetry.FlightLoad, op.Addr, op.Imm, m.res.Instructions-uint64(end-idx-1))
				}
				v, ok := m.loadHit(op.Imm)
				if !ok {
					var f *mem.Fault
					if v, f = m.read64(op.Imm); f != nil {
						cpu.PC = op.Addr
						m.stopFault(op.Addr, f)
						m.rollback(code, idx+1, end)
						return m.finish(), nil
					}
				}
				cpu.R[op.Dst] = v
				m.charge(isa.KLoad, prof.Cost[isa.KLoad])
				idx++
			case pcode.XLoadBase:
				a := cpu.R[op.Base] + uint64(op.Disp)
				if m.rec != nil && m.rec.NearGuard(a) {
					m.rec.Record(telemetry.FlightLoad, op.Addr, a, m.res.Instructions-uint64(end-idx-1))
				}
				v, ok := m.loadHit(a)
				if !ok {
					var f *mem.Fault
					if v, f = m.read64(a); f != nil {
						cpu.PC = op.Addr
						m.stopFault(op.Addr, f)
						m.rollback(code, idx+1, end)
						return m.finish(), nil
					}
				}
				cpu.R[op.Dst] = v
				m.charge(isa.KLoad, prof.Cost[isa.KLoad])
				idx++
			case pcode.XStore:
				a := cpu.R[op.Base] + uint64(op.Disp)
				if !m.storeHit(a, cpu.R[op.Src]) {
					if f := m.write64(a, cpu.R[op.Src]); f != nil {
						cpu.PC = op.Addr
						m.stopFault(op.Addr, f)
						m.rollback(code, idx+1, end)
						return m.finish(), nil
					}
				}
				m.charge(isa.KStore, prof.Cost[isa.KStore])
				idx++
			case pcode.XLea:
				cpu.R[op.Dst] = cpu.R[op.Base] + uint64(op.Disp)
				m.charge(isa.KLea, prof.Cost[isa.KLea])
				idx++
			case pcode.XAluAddRR:
				cpu.R[op.Dst] += cpu.R[op.Src]
				m.charge(isa.KAlu, prof.Cost[isa.KAlu])
				idx++
			case pcode.XAluAddRI:
				cpu.R[op.Dst] += op.Imm
				m.charge(isa.KAluImm, prof.Cost[isa.KAluImm])
				idx++
			case pcode.XAluSubRR:
				cpu.R[op.Dst] -= cpu.R[op.Src]
				m.charge(isa.KAlu, prof.Cost[isa.KAlu])
				idx++
			case pcode.XAluSubRI:
				cpu.R[op.Dst] -= op.Imm
				m.charge(isa.KAluImm, prof.Cost[isa.KAluImm])
				idx++
			case pcode.XAluRR:
				v, c, err := aluExec(op.Alu, cpu.R[op.Dst], cpu.R[op.Src], prof, prof.Cost[isa.KAlu])
				if err != nil {
					cpu.PC = op.Addr
					m.rollback(code, idx+1, end)
					return m.finish(), fmt.Errorf("vm: at %#x: %w", op.Addr, err)
				}
				cpu.R[op.Dst] = v
				m.charge(isa.KAlu, c)
				idx++
			case pcode.XAluRI:
				v, c, err := aluExec(op.Alu, cpu.R[op.Dst], op.Imm, prof, prof.Cost[isa.KAluImm])
				if err != nil {
					cpu.PC = op.Addr
					m.rollback(code, idx+1, end)
					return m.finish(), fmt.Errorf("vm: at %#x: %w", op.Addr, err)
				}
				cpu.R[op.Dst] = v
				m.charge(isa.KAluImm, c)
				idx++
			case pcode.XSet:
				cpu.R[op.Dst] = cmpExec(op.Cmp, cpu.R[op.A], cpu.R[op.B])
				m.charge(isa.KSet, prof.Cost[isa.KSet])
				idx++
			case pcode.XPush:
				cpu.R[isa.RSP] -= 8
				if !m.storeHit(cpu.R[isa.RSP], cpu.R[op.Src]) {
					if f := m.write64(cpu.R[isa.RSP], cpu.R[op.Src]); f != nil {
						cpu.PC = op.Addr
						m.stopFault(op.Addr, f)
						m.rollback(code, idx+1, end)
						return m.finish(), nil
					}
				}
				m.charge(isa.KPush, prof.Cost[isa.KPush])
				idx++
			case pcode.XPushImm:
				cpu.R[isa.RSP] -= 8
				if !m.storeHit(cpu.R[isa.RSP], op.Imm) {
					if f := m.write64(cpu.R[isa.RSP], op.Imm); f != nil {
						cpu.PC = op.Addr
						m.stopFault(op.Addr, f)
						m.rollback(code, idx+1, end)
						return m.finish(), nil
					}
				}
				m.charge(isa.KPushImm, prof.Cost[isa.KPushImm])
				idx++
			case pcode.XPop:
				v, ok := m.loadHit(cpu.R[isa.RSP])
				if !ok {
					var f *mem.Fault
					if v, f = m.read64(cpu.R[isa.RSP]); f != nil {
						cpu.PC = op.Addr
						m.stopFault(op.Addr, f)
						m.rollback(code, idx+1, end)
						return m.finish(), nil
					}
				}
				cpu.R[op.Dst] = v
				cpu.R[isa.RSP] += 8
				m.charge(isa.KPop, prof.Cost[isa.KPop])
				idx++
			case pcode.XCall:
				t, stop := m.fastCall(code, idx, end, false)
				if stop {
					return m.finish(), nil
				}
				idx = t
				continue blocks
			case pcode.XCallInd:
				t, stop := m.fastCall(code, idx, end, true)
				if stop {
					return m.finish(), nil
				}
				idx = t
				continue blocks
			case pcode.XRet:
				t, stop := m.fastRet(code, idx, end)
				if stop {
					return m.finish(), nil
				}
				idx = t
				continue blocks
			case pcode.XJmp:
				t, stop := m.fastJump(code, idx, end, isa.KJmp)
				if stop {
					return m.finish(), nil
				}
				idx = t
				continue blocks
			case pcode.XJz:
				if cpu.R[op.Src] == 0 {
					t, stop := m.fastJump(code, idx, end, isa.KJz)
					if stop {
						return m.finish(), nil
					}
					idx = t
					continue blocks
				}
				m.charge(isa.KJz, prof.Cost[isa.KJz])
				idx++
			case pcode.XJnz:
				if cpu.R[op.Src] != 0 {
					t, stop := m.fastJump(code, idx, end, isa.KJnz)
					if stop {
						return m.finish(), nil
					}
					idx = t
					continue blocks
				}
				m.charge(isa.KJnz, prof.Cost[isa.KJnz])
				idx++
			case pcode.XNop:
				m.charge(isa.KNop, prof.Cost[isa.KNop])
				idx++
			case pcode.XTrap:
				kind := m.Proc.ClassifyFault(op.Addr, nil)
				if kind == rt.TrapNone {
					kind = rt.TrapProlog
				}
				ev := rt.TrapEvent{Kind: kind, PC: op.Addr}
				m.Proc.RecordTrap(ev)
				m.res.Trap = &ev
				cpu.PC = op.Addr
				m.rollback(code, idx+1, end)
				return m.finish(), nil
			case pcode.XVLoadAbs, pcode.XVLoadBase:
				a := op.Imm
				if op.Exec == pcode.XVLoadBase {
					a = cpu.R[op.Base] + uint64(op.Disp)
				}
				lanes := int(op.Lanes)
				faulted := false
				for l := 0; l < lanes; l++ {
					la := a + uint64(l)*8
					v, ok := m.loadHit(la)
					if !ok {
						var f *mem.Fault
						if v, f = m.read64(la); f != nil {
							cpu.PC = op.Addr
							m.stopFault(op.Addr, f)
							m.rollback(code, idx+1, end)
							faulted = true
							break
						}
					}
					cpu.V[op.VDst][l] = v
				}
				if faulted {
					return m.finish(), nil
				}
				cost := prof.Cost[isa.KVLoad]
				if lanes*8 > 16 {
					cpu.DirtyUpper = true
				}
				if lanes > 4 {
					cost *= 1.3
				}
				m.charge(isa.KVLoad, cost)
				idx++
			case pcode.XVStore, pcode.XVStoreA:
				a := op.Target + uint64(op.Disp)
				if op.Base != isa.NoGPR {
					a = cpu.R[op.Base] + uint64(op.Disp)
				}
				if op.Exec == pcode.XVStoreA && a%16 != 0 {
					cpu.PC = op.Addr
					m.rollback(code, idx+1, end)
					return m.finish(), fmt.Errorf("vm: at %#x: misaligned vector store to %#x", op.Addr, a)
				}
				lanes := int(op.Lanes)
				faulted := false
				for l := 0; l < lanes; l++ {
					la := a + uint64(l)*8
					if !m.storeHit(la, cpu.V[op.VSrc][l]) {
						if f := m.write64(la, cpu.V[op.VSrc][l]); f != nil {
							cpu.PC = op.Addr
							m.stopFault(op.Addr, f)
							m.rollback(code, idx+1, end)
							faulted = true
							break
						}
					}
				}
				if faulted {
					return m.finish(), nil
				}
				cost := prof.Cost[op.Kind]
				if lanes*8 > 16 {
					cpu.DirtyUpper = true
				}
				if lanes > 4 {
					cost *= 1.3
				}
				m.charge(op.Kind, cost)
				idx++
			case pcode.XVZeroUpper:
				cpu.DirtyUpper = false
				for i := range cpu.V {
					for l := 2; l < 8; l++ {
						cpu.V[i][l] = 0
					}
				}
				m.charge(isa.KVZeroUpper, prof.Cost[isa.KVZeroUpper])
				idx++
			case pcode.XSys:
				if err := m.sys(op.Sys); err != nil {
					cpu.PC = op.Addr
					m.rollback(code, idx+1, end)
					return m.finish(), fmt.Errorf("vm: at %#x: %w", op.Addr, err)
				}
				m.flushTLB()
				m.charge(isa.KSys, prof.SysCost)
				if m.res.Halted {
					cpu.PC = op.Addr
					return m.finish(), nil
				}
				idx++
			case pcode.XHalt:
				m.res.Halted = true
				m.charge(isa.KHalt, prof.Cost[isa.KHalt])
				cpu.PC = op.Addr
				return m.finish(), nil
			case pcode.XBadVec:
				cpu.PC = op.Addr
				m.rollback(code, idx+1, end)
				return m.finish(), fmt.Errorf("vm: at %#x: bad vector width %d", op.Addr, op.Imm)
			default: // XUnimpl (XFellOff cannot appear inside a block)
				cpu.PC = op.Addr
				m.rollback(code, idx+1, end)
				return m.finish(), fmt.Errorf("vm: at %#x: unimplemented %v", op.Addr, op.Kind)
			}
			if idx >= end {
				continue blocks
			}
			op = &ops[idx]
			if op.Flags&pcode.FNewPage != 0 && op.Addr>>mem.PageShift != m.lastExecPage {
				if !m.enterPage(op) {
					m.rollback(code, idx, end) // fetch fault: op not retired
					return m.finish(), nil
				}
			}
			if op.Flags&pcode.FNewLine != 0 {
				if line := op.Addr >> 6; line != m.lastLine {
					if m.ic.access(op.Addr) {
						m.res.Cycles += prof.ICacheMissPenalty
						m.res.ICacheStallCycles += prof.ICacheMissPenalty
					}
					m.lastLine = line
				}
			}
		}
	}
}

// fireKnobs fires the RSS sample and i-cache flush due at the instruction
// about to retire, in that order, and returns how many ops the segment it
// opens may run: up to, not including, the next op that fires a knob. A
// flush also ends its own segment after one op, since the later ops' static
// line-elision flags assume a warm lastLine.
func (m *Machine) fireKnobs() uint64 {
	k := m.res.Instructions + 1
	n := ^uint64(0)
	if s := m.SampleEvery; s > 0 {
		if k%s == 0 {
			m.res.RSSSamples = append(m.res.RSSSamples, m.Proc.Space.RSSBytes())
		}
		n = s - k%s
	}
	if f := m.FlushICacheEvery; f > 0 {
		if k%f == 0 {
			m.ic.flush()
			m.lastLine = ^uint64(0)
			n = 1
		} else if d := f - k%f; d < n {
			n = d
		}
	}
	return n
}

// rollback undoes the segment-entry charge for the unretired ops [from,
// end) — called when a fault, trap or VM error stops execution
// mid-segment. Faulting fetches pass the faulting op itself; faulting
// executions pass the successor (the instruction retired architecturally
// even though it did not complete).
func (m *Machine) rollback(code *pcode.Program, from, end int) {
	for i := from; i < end; i++ {
		m.res.ClassInstr[code.Ops[i].Kind]--
	}
	m.res.Instructions -= uint64(end - from)
}

// enterPage runs the exec-permission check for a fetch that crosses into a
// new page. Returns false on a fault, with the fault recorded and the PC at
// op.
func (m *Machine) enterPage(op *pcode.Op) bool {
	if err := m.Proc.Space.CheckExec(op.Addr); err != nil {
		var f *mem.Fault
		errors.As(err, &f)
		m.CPU.PC = op.Addr
		m.stopFault(op.Addr, f)
		return false
	}
	m.lastExecPage = op.Addr >> mem.PageShift
	return true
}

// fastCall executes a call op at idx: push the return address,
// maintain the shadow stack and call counter, charge the (possibly
// AVX-transition-penalized) cost, and transfer. Returns the callee's dense
// index, or stop=true when the run ended (push fault, shadow-stack trap or
// wild target) — rollback for the block suffix has then been applied.
func (m *Machine) fastCall(code *pcode.Program, idx, end int, indirect bool) (next int, stop bool) {
	op := &code.Ops[idx]
	cpu := &m.CPU
	kind := isa.KCall
	tIdx := op.TIdx
	target := op.Target
	if indirect {
		kind = isa.KCallInd
		target = cpu.R[op.Src]
		tIdx = code.IndexOf(target)
	}
	cpu.R[isa.RSP] -= 8
	if !m.storeHit(cpu.R[isa.RSP], op.Imm) {
		if f := m.write64(cpu.R[isa.RSP], op.Imm); f != nil {
			cpu.PC = op.Addr
			m.stopFault(op.Addr, f)
			m.rollback(code, idx+1, end)
			return 0, true
		}
	}
	if m.Proc.Cfg.ShadowStack {
		m.shadow = append(m.shadow, op.Imm)
	}
	m.res.Calls++
	if op.RAIdx >= 0 {
		if len(m.rstack) >= 4096 {
			m.rstack = m.rstack[:0] // deep unbalance: predict nothing
		}
		m.rstack = append(m.rstack, retPred{addr: op.Imm, idx: op.RAIdx})
	}
	cost := m.Prof.Cost[kind]
	if cpu.DirtyUpper {
		cost += m.Prof.AVXDirtyPenalty
	}
	m.charge(kind, cost)
	if m.rec != nil {
		// Control transfers are block-final, so the up-front segment
		// charge has exactly retired through this op; recording happens
		// before target resolution so wild calls are captured too.
		fk := telemetry.FlightCall
		if indirect {
			fk = telemetry.FlightCallInd
		}
		m.rec.Record(fk, op.Addr, target, m.res.Instructions)
	}
	if tIdx < 0 {
		cpu.PC = op.Addr
		m.stopFault(op.Addr, &mem.Fault{Addr: target, Access: mem.AccessExec, Unmapped: true})
		m.rollback(code, idx+1, end)
		return 0, true
	}
	if m.profiler != nil {
		m.profiler.onCall(code.Funcs[code.Ops[tIdx].FuncIx].Name, m.res.Cycles)
	}
	return int(tIdx), false
}

// fastRet executes a return op at idx; same contract as fastCall.
func (m *Machine) fastRet(code *pcode.Program, idx, end int) (next int, stop bool) {
	op := &code.Ops[idx]
	cpu := &m.CPU
	ra, ok := m.loadHit(cpu.R[isa.RSP])
	if !ok {
		var f *mem.Fault
		if ra, f = m.read64(cpu.R[isa.RSP]); f != nil {
			cpu.PC = op.Addr
			m.stopFault(op.Addr, f)
			m.rollback(code, idx+1, end)
			return 0, true
		}
	}
	cpu.R[isa.RSP] += 8
	if m.Proc.Cfg.ShadowStack {
		if n := len(m.shadow); n == 0 || m.shadow[n-1] != ra {
			ev := rt.TrapEvent{Kind: rt.TrapShadowStack, PC: op.Addr, Addr: ra}
			m.Proc.RecordTrap(ev)
			m.res.Trap = &ev
			cpu.PC = op.Addr
			m.rollback(code, idx+1, end)
			return 0, true
		}
		m.shadow = m.shadow[:len(m.shadow)-1]
	}
	cost := m.Prof.Cost[isa.KRet]
	if cpu.DirtyUpper {
		cost += m.Prof.AVXDirtyPenalty
	}
	m.charge(isa.KRet, cost)
	if m.rec != nil {
		m.rec.Record(telemetry.FlightRet, op.Addr, ra, m.res.Instructions)
	}
	t := int32(-1)
	if n := len(m.rstack); n > 0 {
		e := m.rstack[n-1]
		m.rstack = m.rstack[:n-1]
		if e.addr == ra {
			t = e.idx
		}
	}
	if t < 0 {
		t = code.IndexOf(ra)
	}
	if t < 0 {
		cpu.PC = op.Addr
		m.stopFault(op.Addr, &mem.Fault{Addr: ra, Access: mem.AccessExec, Unmapped: true})
		m.rollback(code, idx+1, end)
		return 0, true
	}
	if m.profiler != nil {
		m.profiler.onRet(code.Funcs[code.Ops[t].FuncIx].Name, m.res.Cycles)
	}
	return int(t), false
}

// fastJump executes a taken jump at idx; same contract as fastCall.
func (m *Machine) fastJump(code *pcode.Program, idx, end int, k isa.Kind) (next int, stop bool) {
	op := &code.Ops[idx]
	m.charge(k, m.Prof.Cost[k])
	if m.rec != nil {
		m.rec.Record(telemetry.FlightJump, op.Addr, op.Target, m.res.Instructions)
	}
	t := op.TIdx
	if t < 0 {
		m.CPU.PC = op.Addr
		m.stopFault(op.Addr, &mem.Fault{Addr: op.Target, Access: mem.AccessExec, Unmapped: true})
		m.rollback(code, idx+1, end)
		return 0, true
	}
	if m.profiler != nil && code.Ops[t].FuncIx != op.FuncIx {
		m.profiler.onJump(code.Funcs[code.Ops[t].FuncIx].Name, m.res.Cycles)
	}
	return int(t), false
}
