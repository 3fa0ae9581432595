package vm

import (
	"errors"
	"fmt"

	"r2c/internal/isa"
	"r2c/internal/mem"
	"r2c/internal/rt"
	"r2c/internal/telemetry"
)

// charge adds cost to the modeled cycle count and attributes it to the
// instruction class: runLegacy's per-op charge, made on the Result
// itself where runFast keeps a local total (see tally).
func (m *Machine) charge(k isa.Kind, cost float64) {
	m.res.Cycles = m.tally(m.res.Cycles, k, cost)
}

// runLegacy is the reference per-instruction interpreter: it walks the
// architectural instruction table (isa.Instr slices in placement order,
// binary-searched control transfers) one instruction at a time, sharing no
// dispatch code with runFast. The differential tests and the fuzz target
// hold the production engine to it Result for Result; it is compiled into
// test binaries only.
func (m *Machine) runLegacy(maxInstr uint64) (*Result, error) {
	m.resume()
	img, prof, cpu := m.Img, m.Prof, &m.CPU
	limit := m.res.Instructions + maxInstr
	knobs := m.SampleEvery | m.FlushICacheEvery

	curF := img.FuncAt(cpu.PC)
	if curF == nil {
		return &m.res, fmt.Errorf("vm: entry %#x not in text", cpu.PC)
	}
	curIdx := curF.InstrIndexAt(cpu.PC)
	if curIdx < 0 {
		return &m.res, fmt.Errorf("vm: entry %#x not an instruction", cpu.PC)
	}

	// jump transfers control to an absolute address, updating the current
	// function and index. Returns false (and stops) on wild transfers.
	jump := func(target uint64) bool {
		if target >= curF.Start && target < curF.End {
			if i := curF.InstrIndexAt(target); i >= 0 {
				curIdx = i
				return true
			}
		} else if pf := img.FuncAt(target); pf != nil {
			if i := pf.InstrIndexAt(target); i >= 0 {
				curF, curIdx = pf, i
				return true
			}
		}
		m.stopFault(cpu.PC, &mem.Fault{Addr: target, Access: mem.AccessExec, Unmapped: true})
		return false
	}

	finish := m.finish

	for {
		if m.res.Instructions >= limit {
			// Pause with PC at the *next* instruction so a later Run call
			// resumes exactly where this one stopped.
			cpu.PC = curF.InstrAddrs[curIdx]
			return finish(), ErrFuelExhausted
		}
		in := &curF.F.Instrs[curIdx]
		addr := curF.InstrAddrs[curIdx]
		cpu.PC = addr

		// Fetch permission, checked per page transition.
		if pg := addr >> mem.PageShift; pg != m.lastExecPage {
			if err := m.Proc.Space.CheckExec(addr); err != nil {
				var f *mem.Fault
				errors.As(err, &f)
				m.stopFault(addr, f)
				return finish(), nil
			}
			m.lastExecPage = pg
		}

		// Instruction cache, modeled per line transition.
		if line := addr >> 6; line != m.lastLine {
			if m.ic.access(addr) {
				m.res.Cycles += prof.ICacheMissPenalty
				m.res.ICacheStallCycles += prof.ICacheMissPenalty
			}
			m.lastLine = line
		}

		m.res.Instructions++
		m.res.ClassInstr[in.Kind]++
		if knobs != 0 {
			if m.SampleEvery > 0 && m.res.Instructions%m.SampleEvery == 0 {
				m.res.RSSSamples = append(m.res.RSSSamples, m.Proc.Space.RSSBytes())
			}
			if m.FlushICacheEvery > 0 && m.res.Instructions%m.FlushICacheEvery == 0 {
				m.ic.flush()
				m.lastLine = ^uint64(0)
			}
		}
		cost := prof.Cost[in.Kind]
		next := curIdx + 1

		switch in.Kind {
		case isa.KMovImm:
			cpu.R[in.Dst] = in.Imm
		case isa.KMovReg:
			cpu.R[in.Dst] = cpu.R[in.Src]
		case isa.KLoad:
			a := in.Target + uint64(in.Disp)
			if in.Base != isa.NoGPR {
				a = cpu.R[in.Base] + uint64(in.Disp)
			}
			if m.rec != nil && m.rec.NearGuard(a) {
				m.rec.Record(telemetry.FlightLoad, addr, a, m.res.Instructions)
			}
			v, f := m.read64(a)
			if f != nil {
				m.stopFault(addr, f)
				return finish(), nil
			}
			cpu.R[in.Dst] = v
		case isa.KStore:
			if f := m.write64(cpu.R[in.Base]+uint64(in.Disp), cpu.R[in.Src]); f != nil {
				m.stopFault(addr, f)
				return finish(), nil
			}
		case isa.KLea:
			cpu.R[in.Dst] = cpu.R[in.Base] + uint64(in.Disp)
		case isa.KAlu, isa.KAluImm:
			b := in.Imm
			if in.Kind == isa.KAlu {
				b = cpu.R[in.Src]
			}
			v, c, err := aluExec(in.Alu, cpu.R[in.Dst], b, prof, cost)
			if err != nil {
				return finish(), fmt.Errorf("vm: at %#x: %w", addr, err)
			}
			cpu.R[in.Dst] = v
			cost = c
		case isa.KSet:
			cpu.R[in.Dst] = cmpExec(in.Cmp, cpu.R[in.A], cpu.R[in.B])
		case isa.KPush, isa.KPushImm:
			v := in.Imm
			if in.Kind == isa.KPush {
				v = cpu.R[in.Src]
			}
			cpu.R[isa.RSP] -= 8
			if f := m.write64(cpu.R[isa.RSP], v); f != nil {
				m.stopFault(addr, f)
				return finish(), nil
			}
		case isa.KPop:
			v, f := m.read64(cpu.R[isa.RSP])
			if f != nil {
				m.stopFault(addr, f)
				return finish(), nil
			}
			cpu.R[in.Dst] = v
			cpu.R[isa.RSP] += 8
		case isa.KCall, isa.KCallInd:
			target := in.Target
			if in.Kind == isa.KCallInd {
				target = cpu.R[in.Src]
			}
			ra := addr + uint64(in.EncodedSize())
			cpu.R[isa.RSP] -= 8
			if f := m.write64(cpu.R[isa.RSP], ra); f != nil {
				m.stopFault(addr, f)
				return finish(), nil
			}
			if m.Proc.Cfg.ShadowStack {
				m.shadow = append(m.shadow, ra)
			}
			m.res.Calls++
			if cpu.DirtyUpper {
				cost += prof.AVXDirtyPenalty
			}
			m.charge(in.Kind, cost)
			if m.rec != nil {
				k := telemetry.FlightCall
				if in.Kind == isa.KCallInd {
					k = telemetry.FlightCallInd
				}
				// Recorded before target resolution, so wild transfers —
				// the attack signal — land on the flight record too.
				m.rec.Record(k, addr, target, m.res.Instructions)
			}
			if !jump(target) {
				return finish(), nil
			}
			if m.profiler != nil {
				m.profiler.onCall(curF.F.Name, m.res.Cycles)
			}
			continue
		case isa.KRet:
			ra, f := m.read64(cpu.R[isa.RSP])
			if f != nil {
				m.stopFault(addr, f)
				return finish(), nil
			}
			cpu.R[isa.RSP] += 8
			if m.Proc.Cfg.ShadowStack {
				if n := len(m.shadow); n == 0 || m.shadow[n-1] != ra {
					ev := rt.TrapEvent{Kind: rt.TrapShadowStack, PC: addr, Addr: ra}
					m.Proc.RecordTrap(ev)
					m.res.Trap = &ev
					return finish(), nil
				}
				m.shadow = m.shadow[:len(m.shadow)-1]
			}
			if cpu.DirtyUpper {
				cost += prof.AVXDirtyPenalty
			}
			m.charge(in.Kind, cost)
			if m.rec != nil {
				m.rec.Record(telemetry.FlightRet, addr, ra, m.res.Instructions)
			}
			if !jump(ra) {
				return finish(), nil
			}
			if m.profiler != nil {
				m.profiler.onRet(curF.F.Name, m.res.Cycles)
			}
			continue
		case isa.KJmp:
			m.charge(in.Kind, cost)
			if m.rec != nil {
				m.rec.Record(telemetry.FlightJump, addr, in.Target, m.res.Instructions)
			}
			prev := curF
			if !jump(in.Target) {
				return finish(), nil
			}
			if m.profiler != nil && curF != prev {
				m.profiler.onJump(curF.F.Name, m.res.Cycles)
			}
			continue
		case isa.KJz, isa.KJnz:
			taken := (cpu.R[in.Src] == 0) == (in.Kind == isa.KJz)
			if taken {
				m.charge(in.Kind, cost)
				if m.rec != nil {
					m.rec.Record(telemetry.FlightJump, addr, in.Target, m.res.Instructions)
				}
				prev := curF
				if !jump(in.Target) {
					return finish(), nil
				}
				if m.profiler != nil && curF != prev {
					m.profiler.onJump(curF.F.Name, m.res.Cycles)
				}
				continue
			}
		case isa.KNop:
			// fetch cost only
		case isa.KTrap:
			kind := m.Proc.ClassifyFault(addr, nil)
			if kind == rt.TrapNone {
				kind = rt.TrapProlog // a trap in regular code
			}
			ev := rt.TrapEvent{Kind: kind, PC: addr}
			m.Proc.RecordTrap(ev)
			m.res.Trap = &ev
			return finish(), nil
		case isa.KVLoad, isa.KVStore, isa.KVStoreA:
			lanes := int(in.Imm) / 8
			if lanes <= 0 || lanes > 8 {
				return finish(), fmt.Errorf("vm: at %#x: bad vector width %d", addr, in.Imm)
			}
			a := in.Target + uint64(in.Disp)
			if in.Base != isa.NoGPR {
				a = cpu.R[in.Base] + uint64(in.Disp)
			}
			if in.Kind == isa.KVStoreA && a%16 != 0 {
				return finish(), fmt.Errorf("vm: at %#x: misaligned vector store to %#x", addr, a)
			}
			for l := 0; l < lanes; l++ {
				la := a + uint64(l)*8
				if in.Kind == isa.KVLoad {
					v, f := m.read64(la)
					if f != nil {
						m.stopFault(addr, f)
						return finish(), nil
					}
					cpu.V[in.VDst][l] = v
				} else {
					if f := m.write64(la, cpu.V[in.VSrc][l]); f != nil {
						m.stopFault(addr, f)
						return finish(), nil
					}
				}
			}
			if lanes*8 > 16 {
				cpu.DirtyUpper = true
			}
			if lanes > 4 {
				cost *= 1.3 // 512-bit moves are slightly pricier per op
			}
		case isa.KVZeroUpper:
			cpu.DirtyUpper = false
			for i := range cpu.V {
				for l := 2; l < 8; l++ {
					cpu.V[i][l] = 0
				}
			}
		case isa.KSys:
			cost = prof.SysCost
			if err := m.sys(in.Sys); err != nil {
				return finish(), fmt.Errorf("vm: at %#x: %w", addr, err)
			}
			m.flushTLB()
			if m.res.Halted {
				m.charge(in.Kind, cost)
				return finish(), nil
			}
		case isa.KHalt:
			m.res.Halted = true
			m.charge(in.Kind, cost)
			return finish(), nil
		default:
			return finish(), fmt.Errorf("vm: at %#x: unimplemented %v", addr, in.Kind)
		}

		m.charge(in.Kind, cost)
		curIdx = next
		if curIdx >= len(curF.F.Instrs) {
			return finish(), fmt.Errorf("vm: fell off the end of %s", curF.F.Name)
		}
	}
}
