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
// checks; one Flags == 0 test skips both when neither transition is
// possible, and a line transition whose line is already the most recent in
// its set (icache.mru, inlined) counts the hit without calling access.
//
// Cycle accounting (float64) deliberately stays per-op and in program
// order: float addition is not associative, so block-summed charging would
// change Result.Cycles in the low bits. Only the integer counters are
// batched. The running total lives in the local cyc rather than in
// m.res.Cycles, so the per-op add stays in a register instead of going
// through memory: each op adds its cost with tally, every exit writes the
// total back (stop), and fastCall, fastRet and fastJump take and return it.
// The hot ALU suboperations (mul, xor, shifts, and, or) run inline in the
// dispatch case; only div, rem and unknown suboperations call aluExec.
func (m *Machine) runFast(code *pcode.Program, maxInstr uint64) (*Result, error) {
	prof, cpu := m.Prof, &m.CPU
	limit := m.res.Instructions + maxInstr
	cyc := m.res.Cycles

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
			return m.stop(cyc), fmt.Errorf("vm: fell off the end of %s", code.Funcs[code.FuncOf(cpu.PC)].Name)
		}
		rem := limit - m.res.Instructions
		if rem == 0 {
			// Pause with the PC at the next instruction so a later Run call
			// resumes exactly here.
			cpu.PC = op.Addr
			return m.stop(cyc), ErrFuelExhausted
		}
		if op.Addr>>mem.PageShift != m.lastExecPage {
			if !m.enterPage(op) {
				return m.stop(cyc), nil // fetch fault: nothing retired
			}
		}
		if line := op.Addr >> 6; line != m.lastLine {
			if !m.ic.mru(op.Addr) && m.ic.access(op.Addr) {
				cyc += prof.ICacheMissPenalty
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
				cyc = m.tally(cyc, isa.KMovImm, prof.Cost[isa.KMovImm])
			case pcode.XMovReg:
				cpu.R[op.Dst] = cpu.R[op.Src]
				cyc = m.tally(cyc, isa.KMovReg, prof.Cost[isa.KMovReg])
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
						return m.stop(cyc), nil
					}
				}
				cpu.R[op.Dst] = v
				cyc = m.tally(cyc, isa.KLoad, prof.Cost[isa.KLoad])
			case pcode.XLoadBase:
				a := cpu.R[op.Base] + op.Imm
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
						return m.stop(cyc), nil
					}
				}
				cpu.R[op.Dst] = v
				cyc = m.tally(cyc, isa.KLoad, prof.Cost[isa.KLoad])
			case pcode.XStore:
				a := cpu.R[op.Base] + op.Imm
				if !m.storeHit(a, cpu.R[op.Src]) {
					if f := m.write64(a, cpu.R[op.Src]); f != nil {
						cpu.PC = op.Addr
						m.stopFault(op.Addr, f)
						m.rollback(code, idx+1, end)
						return m.stop(cyc), nil
					}
				}
				cyc = m.tally(cyc, isa.KStore, prof.Cost[isa.KStore])
			case pcode.XLea:
				cpu.R[op.Dst] = cpu.R[op.Base] + op.Imm
				cyc = m.tally(cyc, isa.KLea, prof.Cost[isa.KLea])
			case pcode.XAluAddRR:
				cpu.R[op.Dst] += cpu.R[op.Src]
				cyc = m.tally(cyc, isa.KAlu, prof.Cost[isa.KAlu])
			case pcode.XAluAddRI:
				cpu.R[op.Dst] += op.Imm
				cyc = m.tally(cyc, isa.KAluImm, prof.Cost[isa.KAluImm])
			case pcode.XAluSubRR:
				cpu.R[op.Dst] -= cpu.R[op.Src]
				cyc = m.tally(cyc, isa.KAlu, prof.Cost[isa.KAlu])
			case pcode.XAluSubRI:
				cpu.R[op.Dst] -= op.Imm
				cyc = m.tally(cyc, isa.KAluImm, prof.Cost[isa.KAluImm])
			case pcode.XAluRR, pcode.XAluRI:
				k, a, b := isa.KAluImm, cpu.R[op.Dst], op.Imm
				if op.Exec == pcode.XAluRR {
					k, b = isa.KAlu, cpu.R[op.Src]
				}
				cost := prof.Cost[k]
				switch isa.AluOp(op.Sub) {
				case isa.AluMul:
					a, cost = a*b, prof.MulCost
				case isa.AluXor:
					a ^= b
				case isa.AluShr:
					a >>= b & 63
				case isa.AluShl:
					a <<= b & 63
				case isa.AluAnd:
					a &= b
				case isa.AluOr:
					a |= b
				default:
					var err error
					if a, cost, err = aluExec(isa.AluOp(op.Sub), a, b, prof, cost); err != nil {
						cpu.PC = op.Addr
						m.rollback(code, idx+1, end)
						return m.stop(cyc), fmt.Errorf("vm: at %#x: %w", op.Addr, err)
					}
				}
				cpu.R[op.Dst] = a
				cyc = m.tally(cyc, k, cost)
			case pcode.XSet:
				cpu.R[op.Dst] = cmpExec(isa.CmpOp(op.Sub), cpu.R[op.Src], cpu.R[op.Base])
				cyc = m.tally(cyc, isa.KSet, prof.Cost[isa.KSet])
			case pcode.XPush:
				cpu.R[isa.RSP] -= 8
				if !m.storeHit(cpu.R[isa.RSP], cpu.R[op.Src]) {
					if f := m.write64(cpu.R[isa.RSP], cpu.R[op.Src]); f != nil {
						cpu.PC = op.Addr
						m.stopFault(op.Addr, f)
						m.rollback(code, idx+1, end)
						return m.stop(cyc), nil
					}
				}
				cyc = m.tally(cyc, isa.KPush, prof.Cost[isa.KPush])
			case pcode.XPushImm:
				cpu.R[isa.RSP] -= 8
				if !m.storeHit(cpu.R[isa.RSP], op.Imm) {
					if f := m.write64(cpu.R[isa.RSP], op.Imm); f != nil {
						cpu.PC = op.Addr
						m.stopFault(op.Addr, f)
						m.rollback(code, idx+1, end)
						return m.stop(cyc), nil
					}
				}
				cyc = m.tally(cyc, isa.KPushImm, prof.Cost[isa.KPushImm])
			case pcode.XPop:
				v, ok := m.loadHit(cpu.R[isa.RSP])
				if !ok {
					var f *mem.Fault
					if v, f = m.read64(cpu.R[isa.RSP]); f != nil {
						cpu.PC = op.Addr
						m.stopFault(op.Addr, f)
						m.rollback(code, idx+1, end)
						return m.stop(cyc), nil
					}
				}
				cpu.R[op.Dst] = v
				cpu.R[isa.RSP] += 8
				cyc = m.tally(cyc, isa.KPop, prof.Cost[isa.KPop])
			case pcode.XCall, pcode.XCallInd:
				var stop bool
				if idx, cyc, stop = m.fastCall(code, idx, end, cyc); stop {
					return m.stop(cyc), nil
				}
				continue blocks
			case pcode.XRet:
				var stop bool
				if idx, cyc, stop = m.fastRet(code, idx, end, cyc); stop {
					return m.stop(cyc), nil
				}
				continue blocks
			case pcode.XJz, pcode.XJnz:
				if (cpu.R[op.Src] == 0) != (op.Exec == pcode.XJz) {
					cyc = m.tally(cyc, op.Kind, prof.Cost[op.Kind]) // not taken
					break
				}
				fallthrough
			case pcode.XJmp:
				var stop bool
				if idx, cyc, stop = m.fastJump(code, idx, end, cyc); stop {
					return m.stop(cyc), nil
				}
				continue blocks
			case pcode.XNop:
				cyc = m.tally(cyc, isa.KNop, prof.Cost[isa.KNop])
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
				return m.stop(cyc), nil
			case pcode.XVLoadAbs, pcode.XVLoadBase:
				a := op.Imm
				if op.Exec == pcode.XVLoadBase {
					a += cpu.R[op.Base]
				}
				lanes := int(op.Lanes)
				for l := 0; l < lanes; l++ {
					la := a + uint64(l)*8
					v, ok := m.loadHit(la)
					if !ok {
						var f *mem.Fault
						if v, f = m.read64(la); f != nil {
							cpu.PC = op.Addr
							m.stopFault(op.Addr, f)
							m.rollback(code, idx+1, end)
							return m.stop(cyc), nil
						}
					}
					cpu.V[op.Dst][l] = v
				}
				cost := prof.Cost[op.Kind]
				if lanes*8 > 16 {
					cpu.DirtyUpper = true
				}
				if lanes > 4 {
					cost *= 1.3
				}
				cyc = m.tally(cyc, op.Kind, cost)
			case pcode.XVStore, pcode.XVStoreA:
				a := op.Imm
				if op.Base != isa.NoGPR {
					a += cpu.R[op.Base]
				}
				if op.Exec == pcode.XVStoreA && a%16 != 0 {
					cpu.PC = op.Addr
					m.rollback(code, idx+1, end)
					return m.stop(cyc), fmt.Errorf("vm: at %#x: misaligned vector store to %#x", op.Addr, a)
				}
				lanes := int(op.Lanes)
				for l := 0; l < lanes; l++ {
					la := a + uint64(l)*8
					if !m.storeHit(la, cpu.V[op.Src][l]) {
						if f := m.write64(la, cpu.V[op.Src][l]); f != nil {
							cpu.PC = op.Addr
							m.stopFault(op.Addr, f)
							m.rollback(code, idx+1, end)
							return m.stop(cyc), nil
						}
					}
				}
				cost := prof.Cost[op.Kind]
				if lanes*8 > 16 {
					cpu.DirtyUpper = true
				}
				if lanes > 4 {
					cost *= 1.3
				}
				cyc = m.tally(cyc, op.Kind, cost)
			case pcode.XVZeroUpper:
				cpu.DirtyUpper = false
				for i := range cpu.V {
					clear(cpu.V[i][2:])
				}
				cyc = m.tally(cyc, isa.KVZeroUpper, prof.Cost[isa.KVZeroUpper])
			case pcode.XSys:
				if err := m.sys(isa.Sys(op.Sub)); err != nil {
					cpu.PC = op.Addr
					m.rollback(code, idx+1, end)
					return m.stop(cyc), fmt.Errorf("vm: at %#x: %w", op.Addr, err)
				}
				m.flushTLB()
				cyc = m.tally(cyc, isa.KSys, prof.SysCost)
				if m.res.Halted {
					cpu.PC = op.Addr
					return m.stop(cyc), nil
				}
			case pcode.XHalt:
				m.res.Halted = true
				cyc = m.tally(cyc, isa.KHalt, prof.Cost[isa.KHalt])
				cpu.PC = op.Addr
				return m.stop(cyc), nil
			case pcode.XBadVec:
				cpu.PC = op.Addr
				m.rollback(code, idx+1, end)
				return m.stop(cyc), fmt.Errorf("vm: at %#x: bad vector width %d", op.Addr, op.Imm)
			default: // XUnimpl (XFellOff cannot appear inside a block)
				cpu.PC = op.Addr
				m.rollback(code, idx+1, end)
				return m.stop(cyc), fmt.Errorf("vm: at %#x: unimplemented %v", op.Addr, op.Kind)
			}
			idx++
			if idx >= end {
				continue blocks
			}
			op = &ops[idx]
			if op.Flags == 0 {
				continue
			}
			if op.Flags&pcode.FNewPage != 0 && op.Addr>>mem.PageShift != m.lastExecPage {
				if !m.enterPage(op) {
					m.rollback(code, idx, end) // fetch fault: op not retired
					return m.stop(cyc), nil
				}
			}
			if op.Flags&pcode.FNewLine != 0 {
				if line := op.Addr >> 6; line != m.lastLine {
					if !m.ic.mru(op.Addr) && m.ic.access(op.Addr) {
						cyc += prof.ICacheMissPenalty
						m.res.ICacheStallCycles += prof.ICacheMissPenalty
					}
					m.lastLine = line
				}
			}
		}
	}
}

// stop writes the dispatch loop's cycle total back to the result and
// finishes it: runFast's one way out once it has started charging.
func (m *Machine) stop(cyc float64) *Result {
	m.res.Cycles = cyc
	return m.finish()
}

// tally charges cost to instruction class k and returns the running cycle
// total cyc plus cost: the per-op charge of runFast, which keeps the total
// in a local. Inlined at every call site (make inline verifies).
func (m *Machine) tally(cyc float64, k isa.Kind, cost float64) float64 {
	m.res.ClassCycles[k] += cost
	return cyc + cost
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

// fastCall executes a call op at idx: push the return address (the Addr
// of the op after it, sentinel included), maintain the shadow stack and
// call counter, charge the (possibly AVX-transition-penalized) cost onto
// the cycle total cyc, and transfer.
// Returns the callee's dense index and the new cycle total, or stop=true
// when the run ended (push fault, wild target) — rollback for the block
// suffix has then been applied.
func (m *Machine) fastCall(code *pcode.Program, idx, end int, cyc float64) (next int, total float64, stop bool) {
	op, ret := &code.Ops[idx], &code.Ops[idx+1]
	cpu := &m.CPU
	tIdx := op.TIdx
	target := op.Imm
	if op.Kind == isa.KCallInd {
		target = cpu.R[op.Src]
		tIdx = code.IndexOf(target)
	}
	cpu.R[isa.RSP] -= 8
	if !m.storeHit(cpu.R[isa.RSP], ret.Addr) {
		if f := m.write64(cpu.R[isa.RSP], ret.Addr); f != nil {
			cpu.PC = op.Addr
			m.stopFault(op.Addr, f)
			m.rollback(code, idx+1, end)
			return 0, cyc, true
		}
	}
	if m.Proc.Cfg.ShadowStack {
		m.shadow = append(m.shadow, ret.Addr)
	}
	m.res.Calls++
	if ret.Exec != pcode.XFellOff {
		if len(m.rstack) >= 4096 {
			m.rstack = m.rstack[:0] // deep unbalance: predict nothing
		}
		m.rstack = append(m.rstack, retPred{addr: ret.Addr, idx: int32(idx + 1)})
	}
	cost := m.Prof.Cost[op.Kind]
	if cpu.DirtyUpper {
		cost += m.Prof.AVXDirtyPenalty
	}
	cyc = m.tally(cyc, op.Kind, cost)
	if m.rec != nil {
		// Control transfers are block-final, so the up-front segment
		// charge has exactly retired through this op; recording happens
		// before target resolution so wild calls are captured too.
		fk := telemetry.FlightCall
		if op.Kind == isa.KCallInd {
			fk = telemetry.FlightCallInd
		}
		m.rec.Record(fk, op.Addr, target, m.res.Instructions)
	}
	if tIdx < 0 {
		cpu.PC = op.Addr
		m.stopFault(op.Addr, &mem.Fault{Addr: target, Access: mem.AccessExec, Unmapped: true})
		m.rollback(code, idx+1, end)
		return 0, cyc, true
	}
	if m.profiler != nil {
		m.profiler.onCall(code.Funcs[code.FuncOf(target)].Name, cyc)
	}
	return int(tIdx), cyc, false
}

// fastRet executes a return op at idx; same contract as fastCall, with a
// shadow-stack mismatch as one more way to stop.
func (m *Machine) fastRet(code *pcode.Program, idx, end int, cyc float64) (next int, total float64, stop bool) {
	op := &code.Ops[idx]
	cpu := &m.CPU
	ra, ok := m.loadHit(cpu.R[isa.RSP])
	if !ok {
		var f *mem.Fault
		if ra, f = m.read64(cpu.R[isa.RSP]); f != nil {
			cpu.PC = op.Addr
			m.stopFault(op.Addr, f)
			m.rollback(code, idx+1, end)
			return 0, cyc, true
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
			return 0, cyc, true
		}
		m.shadow = m.shadow[:len(m.shadow)-1]
	}
	cost := m.Prof.Cost[isa.KRet]
	if cpu.DirtyUpper {
		cost += m.Prof.AVXDirtyPenalty
	}
	cyc = m.tally(cyc, isa.KRet, cost)
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
		return 0, cyc, true
	}
	if m.profiler != nil {
		m.profiler.onRet(code.Funcs[code.FuncOf(ra)].Name, cyc)
	}
	return int(t), cyc, false
}

// fastJump executes a taken jump at idx; same contract as fastCall.
func (m *Machine) fastJump(code *pcode.Program, idx, end int, cyc float64) (next int, total float64, stop bool) {
	op := &code.Ops[idx]
	cost := m.Prof.Cost[op.Kind]
	cyc = m.tally(cyc, op.Kind, cost)
	if m.rec != nil {
		m.rec.Record(telemetry.FlightJump, op.Addr, op.Imm, m.res.Instructions)
	}
	t := op.TIdx
	if t < 0 {
		m.CPU.PC = op.Addr
		m.stopFault(op.Addr, &mem.Fault{Addr: op.Imm, Access: mem.AccessExec, Unmapped: true})
		m.rollback(code, idx+1, end)
		return 0, cyc, true
	}
	if m.profiler != nil {
		if f := code.FuncOf(op.Imm); f != code.FuncOf(op.Addr) {
			m.profiler.onJump(code.Funcs[f].Name, cyc)
		}
	}
	return int(t), cyc, false
}
