package vm

import (
	"errors"
	"fmt"

	"r2c/internal/image"
	"r2c/internal/isa"
	"r2c/internal/mem"
	"r2c/internal/rt"
	"r2c/internal/telemetry"
)

// ErrInstructionBudget is returned when execution exceeds the step budget.
var ErrInstructionBudget = errors.New("vm: instruction budget exhausted")

// ErrFuelExhausted is returned by RunCtx when the caller's total fuel
// allowance runs out — the typed signal a runaway program (an infinite loop
// in lowered code) hands to the execution engine's watchdog, distinct from
// the incremental pause ErrInstructionBudget models.
var ErrFuelExhausted = errors.New("vm: fuel limit exhausted")

// CPU is the architectural register state.
type CPU struct {
	PC uint64
	R  [isa.NumRegs]uint64
	V  [16][8]uint64 // 256/512-bit vector registers as word lanes
	// DirtyUpper models the SSE/AVX transition state vzeroupper clears.
	DirtyUpper bool
}

// Result summarizes one execution.
type Result struct {
	// Cycles is the modeled cycle count; Seconds converts via the profile.
	Cycles       float64
	Instructions uint64
	// Calls counts executed call instructions — the Table 2 metric. Tail
	// calls are jumps and are not counted, matching the paper's
	// methodology (Section 7.1).
	Calls        uint64
	ICacheMisses uint64
	ICacheRefs   uint64

	// ICacheStallCycles is the share of Cycles spent on L1i miss penalties
	// (the paper's i-cache-pressure attribution, Section 7.1).
	ICacheStallCycles float64
	// TLBHits/TLBMisses count the VM's data-TLB slab cache behaviour.
	TLBHits   uint64
	TLBMisses uint64
	// ClassInstr/ClassCycles attribute executed instructions and modeled
	// cycles to instruction classes (indexed by isa.Kind).
	ClassInstr  [32]uint64
	ClassCycles [32]float64

	Halted     bool
	ExitStatus uint64
	// Fault is set when execution stopped on a memory fault.
	Fault *mem.Fault
	// Trap is set when a booby trap detonated (possibly alongside Fault
	// for BTDP guard-page hits).
	Trap *rt.TrapEvent

	// MaxRSSBytes is the peak resident set (the maxrss methodology of
	// Section 6.2.5); RSSSamples holds periodic samples (the monitoring-
	// process methodology).
	MaxRSSBytes uint64
	RSSSamples  []uint64

	Output []uint64
}

// Seconds converts modeled cycles to wall-clock time on profile p.
func (r *Result) Seconds(p *Profile) float64 { return r.Cycles / (p.GHz * 1e9) }

type tlbEntry struct {
	page  uint64
	data  []byte
	perm  mem.Perm
	valid bool
}

// Machine executes a loaded process under a machine profile.
type Machine struct {
	Proc *rt.Process
	Img  *image.Image
	Prof *Profile
	CPU  CPU

	// SampleEvery, when non-zero, records an RSS sample every N
	// instructions (the separate-monitoring-process methodology).
	SampleEvery uint64
	// FlushICacheEvery, when non-zero, empties the instruction cache every
	// N instructions — modeling context-switch pollution when the server
	// shares cores with the load generator (Section 6.2.4). Programs with
	// larger protected text pay a larger re-warm cost.
	FlushICacheEvery uint64

	ic           *icache
	lastLine     uint64
	lastExecPage uint64
	tlb          [8]tlbEntry

	// shadow is the backward-edge CFI shadow stack (Section 8.2), active
	// when the defense configuration enables it. It lives outside the
	// simulated address space, like a hardware shadow stack.
	shadow []uint64

	// rstack is the fast path's return predictor: each executed call pushes
	// (RA value, RA dense index); a return whose popped RA matches the
	// predicted value reuses the index without an address-map lookup. Purely
	// an optimization — a mismatched or stale entry just falls back to the
	// map, and a matched entry is always correct because the index was
	// derived from the same address at predecode time. Not architectural
	// state.
	rstack []retPred

	// profiler, when enabled, attributes cycles to functions. It observes
	// only control transfers, never the architectural state, so a profiled
	// run is cycle-identical to an unprofiled one.
	profiler *FuncProfiler

	// rec mirrors Proc.Flight: the control-flow flight recorder the
	// dispatch loop feeds at control transfers and guard-adjacent loads.
	// Nil — the common case — keeps the hooks to a single pointer test;
	// recording never touches architectural state, so an instrumented run
	// is cycle-identical to an uninstrumented one.
	rec *telemetry.FlightRecorder

	res Result
	pub published
}

// retPred is one return-predictor entry (see Machine.rstack).
type retPred struct {
	addr uint64
	idx  int32
}

// published remembers what PublishMetrics already exported, so repeated
// publishes (a machine resumed across Run calls) add only deltas.
type published struct {
	instructions uint64
	calls        uint64
	cycles       float64
	stallCycles  float64
	icMisses     uint64
	icRefs       uint64
	tlbHits      uint64
	tlbMisses    uint64
	rssSamples   int
	classInstr   [32]uint64
	classCycles  [32]float64
}

// New prepares a machine at the image entry point.
func New(proc *rt.Process, prof *Profile) *Machine {
	m := &Machine{
		Proc: proc, Img: proc.Img, Prof: prof,
		ic:       newICache(prof),
		lastLine: ^uint64(0), lastExecPage: ^uint64(0),
		rec: proc.Flight,
	}
	m.CPU.PC = proc.Img.Entry
	m.CPU.R[isa.RSP] = proc.InitialRSP
	return m
}

// EnableProfiler turns on per-function cycle attribution and returns the
// profiler. Call before the first Run; the profiler survives budget pauses
// and accumulates across resumed Run calls.
func (m *Machine) EnableProfiler() *FuncProfiler {
	if m.profiler == nil {
		entry := ""
		if f := m.Img.FuncAt(m.CPU.PC); f != nil {
			entry = f.F.Name
		}
		m.profiler = newFuncProfiler(entry, m.res.Cycles)
	}
	return m.profiler
}

// Profiler returns the enabled profiler, or nil.
func (m *Machine) Profiler() *FuncProfiler { return m.profiler }

// charge adds cost to the modeled cycle count and attributes it to the
// instruction class. Small enough to inline into the dispatch loop.
func (m *Machine) charge(k isa.Kind, cost float64) {
	m.res.Cycles += cost
	m.res.ClassCycles[k] += cost
}

func (m *Machine) flushTLB() {
	for i := range m.tlb {
		m.tlb[i].valid = false
	}
}

func (m *Machine) slab(addr uint64) *tlbEntry {
	page := addr >> mem.PageShift
	e := &m.tlb[page&7]
	if e.valid && e.page == page {
		m.res.TLBHits++
		return e
	}
	m.res.TLBMisses++
	data, perm, ok := m.Proc.Space.Slab(addr)
	if !ok {
		return nil
	}
	e.page, e.data, e.perm, e.valid = page, data, perm, true
	return e
}

func (m *Machine) read64(addr uint64) (uint64, *mem.Fault) {
	off := addr & mem.PageMask
	if off <= mem.PageSize-8 {
		if e := m.slab(addr); e != nil {
			if e.perm&mem.PermRead == 0 {
				return 0, &mem.Fault{Addr: addr, Access: mem.AccessRead, Perm: e.perm}
			}
			b := e.data[off : off+8]
			return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
		}
		return 0, &mem.Fault{Addr: addr, Access: mem.AccessRead, Unmapped: true}
	}
	v, err := m.Proc.Space.Read64(addr)
	if err != nil {
		var f *mem.Fault
		errors.As(err, &f)
		return 0, f
	}
	return v, nil
}

func (m *Machine) write64(addr, v uint64) *mem.Fault {
	off := addr & mem.PageMask
	if off <= mem.PageSize-8 {
		if e := m.slab(addr); e != nil {
			if e.perm&mem.PermWrite == 0 {
				return &mem.Fault{Addr: addr, Access: mem.AccessWrite, Perm: e.perm}
			}
			b := e.data[off : off+8]
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
			return nil
		}
		return &mem.Fault{Addr: addr, Access: mem.AccessWrite, Unmapped: true}
	}
	if err := m.Proc.Space.Write64(addr, v); err != nil {
		var f *mem.Fault
		errors.As(err, &f)
		return f
	}
	return nil
}

// stopFault finalizes execution on a memory fault, classifying booby traps.
func (m *Machine) stopFault(pc uint64, f *mem.Fault) {
	m.res.Fault = f
	m.Proc.NoteFault(pc, f)
	if kind := m.Proc.ClassifyFault(pc, f); kind != rt.TrapNone {
		ev := rt.TrapEvent{Kind: kind, PC: pc, Addr: f.Addr}
		m.Proc.RecordTrap(ev)
		m.res.Trap = &ev
	}
}

// Run executes until halt, fault, booby trap, or until maxInstr further
// instructions have executed (the budget is incremental, so a paused
// machine can be resumed with another Run call — how the attack framework
// models Malicious Thread Blocking). The returned Result is valid in all
// cases and accumulates across calls; err is non-nil only for
// simulator-level problems (budget exhaustion, malformed images, division
// by zero, heap exhaustion).
//
// Execution runs on the predecoded program the linker attaches to every
// image (runFast, fast.go).
func (m *Machine) Run(maxInstr uint64) (*Result, error) {
	return m.runFast(m.Img.Code, maxInstr)
}

// finish syncs derived result fields on any stop (halt, fault, trap, pause
// or error) and returns the accumulated result.
func (m *Machine) finish() *Result {
	m.res.ICacheMisses = m.ic.misses
	m.res.ICacheRefs = m.ic.accesses
	m.res.MaxRSSBytes = m.Proc.Space.MaxRSSBytes()
	m.res.Output = m.Proc.Output
	m.res.ExitStatus = m.Proc.ExitStatus
	if m.profiler != nil {
		m.profiler.sync(m.res.Cycles)
	}
	return &m.res
}

func (m *Machine) sys(s isa.Sys) error {
	cpu := &m.CPU
	switch s {
	case isa.SysAlloc:
		a, err := m.Proc.Heap.Alloc(cpu.R[isa.RDI])
		if err != nil {
			return err
		}
		cpu.R[isa.RAX] = a
	case isa.SysFree:
		return m.Proc.Heap.Free(cpu.R[isa.RDI])
	case isa.SysOutput:
		m.Proc.Output = append(m.Proc.Output, cpu.R[isa.RDI])
	case isa.SysExit:
		m.Proc.ExitStatus = cpu.R[isa.RDI]
		m.res.Halted = true
	case isa.SysProtect:
		perm := mem.Perm(cpu.R[isa.RDX])
		return m.Proc.Space.Protect(cpu.R[isa.RDI], cpu.R[isa.RSI], perm)
	default:
		return fmt.Errorf("unknown sys %v", s)
	}
	return nil
}

func aluExec(op isa.AluOp, a, b uint64, prof *Profile, base float64) (uint64, float64, error) {
	switch op {
	case isa.AluAdd:
		return a + b, base, nil
	case isa.AluSub:
		return a - b, base, nil
	case isa.AluMul:
		return a * b, prof.MulCost, nil
	case isa.AluDiv:
		if b == 0 {
			return 0, base, errors.New("division by zero")
		}
		return a / b, prof.DivCost, nil
	case isa.AluRem:
		if b == 0 {
			return 0, base, errors.New("division by zero")
		}
		return a % b, prof.DivCost, nil
	case isa.AluAnd:
		return a & b, base, nil
	case isa.AluOr:
		return a | b, base, nil
	case isa.AluXor:
		return a ^ b, base, nil
	case isa.AluShl:
		return a << (b & 63), base, nil
	case isa.AluShr:
		return a >> (b & 63), base, nil
	}
	return 0, base, fmt.Errorf("unknown alu op %v", op)
}

func cmpExec(op isa.CmpOp, a, b uint64) uint64 {
	var r bool
	switch op {
	case isa.CmpEq:
		r = a == b
	case isa.CmpNeq:
		r = a != b
	case isa.CmpLt:
		r = a < b
	case isa.CmpLeq:
		r = a <= b
	case isa.CmpGt:
		r = a > b
	case isa.CmpGeq:
		r = a >= b
	}
	if r {
		return 1
	}
	return 0
}
