package vm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"r2c/internal/image"
	"r2c/internal/isa"
	"r2c/internal/mem"
	"r2c/internal/rt"
	"r2c/internal/telemetry"
)

// ErrFuelExhausted means the instruction allowance retired without the
// program ending: Run(n) pauses with it after n instructions (a later Run
// resumes exactly there), and RunCtx returns it when the caller's total
// fuel runs out — the typed signal a runaway program (an infinite loop in
// lowered code) hands to the execution engine's watchdog.
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

// tlbSize is the number of entries of the data TLB, direct-mapped by the low
// bits of the page number. The TLB is a host-side cache: it charges no
// modeled cycle, so its size moves wall-clock time and the TLBHits/TLBMisses
// counters only. It needs more entries than the pages a hot loop strides
// over, or pages that share a slot evict each other on every access: nab
// under r2c-full strides over 16.
const tlbSize = 64

// tlbEntry caches one page's slab. owned says whether data is the page's
// writable storage; a shared slab (the zero page, or bytes a fork still
// shares with its snapshot) is replaced by OwnSlab before the first store.
//
// rtag and wtag are the hit path's whole check (loadHit, storeHit): each is
// page+1 when a load (rtag) or a store (wtag) of the cached page may skip
// read64/write64, and 0 otherwise — so a zeroed entry matches no page.
// rtag needs a valid, readable entry; wtag a valid, writable, owned one.
// retag derives both from the other fields and runs wherever they change.
type tlbEntry struct {
	rtag, wtag uint64
	data       *[mem.PageSize]byte
	page       uint64
	perm       mem.Perm
	valid      bool
	owned      bool
}

// retag recomputes e's hit tags from valid, page, perm and owned.
func (e *tlbEntry) retag() {
	e.rtag, e.wtag = 0, 0
	if !e.valid {
		return
	}
	if e.perm&mem.PermRead != 0 {
		e.rtag = e.page + 1
	}
	if e.perm&mem.PermWrite != 0 && e.owned {
		e.wtag = e.page + 1
	}
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
	tlb          [tlbSize]tlbEntry
	// tlbGen is the Space.Gen the cached slabs are current with: a page
	// copied or materialized behind the TLB's back (an attacker's write
	// between Run calls, a page-crossing store) bumps the space's count.
	tlbGen uint64

	// shadow is the backward-edge CFI shadow stack (Section 8.2), active
	// when the defense configuration enables it. It lives outside the
	// simulated address space, like a hardware shadow stack.
	shadow []uint64

	// rstack is the fast path's return predictor: each executed call pushes
	// (RA value, RA dense index), the op after the call, unless that op is
	// its function's end sentinel; a return whose popped RA matches the
	// predicted value reuses the index without searching the program for
	// the address. Purely an optimization — a mismatched, stale or missing
	// entry just falls back to that search (pcode.Program.IndexOf), and a
	// matched entry is always correct because the op at the index sits at
	// that address. Not architectural state.
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
	// met caches the registry handles of the last PublishMetrics target.
	met *metricHandles
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
	m := &Machine{Prof: prof, ic: newICache(prof)}
	m.Reset(proc)
	return m
}

// Reset re-arms m on proc exactly as New(proc, m.Prof) would, so one machine
// can serve request after request without rebuilding its buffers: the
// i-cache, shadow stack and return-predictor storage are kept, emptied.
// Everything else returns to zero — the Result, the PublishMetrics deltas,
// the TLB, the profiler, SampleEvery and FlushICacheEvery — so a reset
// machine starts as cold as a fresh one and runs bit-identically to it.
// Registry handles PublishMetrics resolved stay cached.
//
// Run returns a pointer into the machine, so Reset invalidates every Result
// an earlier run returned; copy what must outlive it first. Output is the
// process's own slice and is not touched.
func (m *Machine) Reset(proc *rt.Process) {
	prof, ic, shadow, rstack, met := m.Prof, m.ic, m.shadow[:0], m.rstack[:0], m.met
	ic.reset()
	*m = Machine{
		Proc: proc, Img: proc.Img, Prof: prof,
		ic:       ic,
		lastLine: ^uint64(0), lastExecPage: ^uint64(0),
		shadow: shadow, rstack: rstack,
		rec: proc.Flight,
		met: met,
	}
	m.CPU.PC = proc.Img.Entry
	m.CPU.R[isa.RSP] = proc.InitialRSP
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

func (m *Machine) flushTLB() {
	m.tlb = [tlbSize]tlbEntry{}
	m.tlbGen = m.Proc.Space.Gen()
}

// resume readies m for a Run call: it forgets the exec page the last run
// fetched from, so the first fetch checks the page's permission again, and
// brings the data TLB up to date with the space. Between Run calls anyone
// holding the process may have written, unmapped or re-protected memory.
func (m *Machine) resume() {
	m.lastExecPage = ^uint64(0)
	m.syncTLB()
}

// syncTLB re-reads the slabs and permissions of cached pages when the space
// replaced page bytes or changed permissions since they were cached. It
// counts neither hits nor misses: the cached translations are still valid,
// only their backing bytes or permissions moved. An entry whose page is no
// longer mapped is dropped: Unmap moves Gen too, and it recycles the page's
// bytes.
func (m *Machine) syncTLB() {
	sp := m.Proc.Space
	if m.tlbGen == sp.Gen() {
		return
	}
	for i := range m.tlb {
		e := &m.tlb[i]
		if !e.valid {
			continue
		}
		if data, perm, owned, ok := sp.Slab(e.page << mem.PageShift); ok {
			e.data, e.perm, e.owned = data, perm, owned
		} else {
			e.valid = false
		}
		e.retag()
	}
	m.tlbGen = sp.Gen()
}

func (m *Machine) slab(addr uint64) *tlbEntry {
	page := addr >> mem.PageShift
	e := &m.tlb[page&(tlbSize-1)]
	if e.valid && e.page == page {
		m.res.TLBHits++
		return e
	}
	m.res.TLBMisses++
	data, perm, owned, ok := m.Proc.Space.Slab(addr)
	if !ok {
		return nil
	}
	e.page, e.data, e.perm, e.valid, e.owned = page, data, perm, true, owned
	e.retag()
	return e
}

// loadHit is the data-TLB hit path of an 8-byte load: when addr's page is
// cached readable and the word does not cross the page end, it counts the
// hit and returns the word. Otherwise it returns ok=false and counts
// nothing; the caller then takes read64, which decides hit, miss or fault.
// Kept call-free so it inlines into the dispatch loop (make check verifies).
func (m *Machine) loadHit(addr uint64) (v uint64, ok bool) {
	off := addr & mem.PageMask
	e := &m.tlb[(addr>>mem.PageShift)&(tlbSize-1)]
	if e.rtag != addr>>mem.PageShift+1 || off > mem.PageSize-8 {
		return 0, false
	}
	m.res.TLBHits++
	return binary.LittleEndian.Uint64(e.data[off:]), true
}

// storeHit is loadHit's store twin: it needs the page cached writable and
// owned, so the first store to shared or zero-page bytes takes write64.
func (m *Machine) storeHit(addr, v uint64) bool {
	off := addr & mem.PageMask
	e := &m.tlb[(addr>>mem.PageShift)&(tlbSize-1)]
	if e.wtag != addr>>mem.PageShift+1 || off > mem.PageSize-8 {
		return false
	}
	m.res.TLBHits++
	binary.LittleEndian.PutUint64(e.data[off:], v)
	return true
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
			if !e.owned {
				// Only this page's bytes move, and e is its only TLB entry.
				e.data, e.owned = m.Proc.Space.OwnSlab(addr), true
				e.retag()
				m.tlbGen = m.Proc.Space.Gen()
			}
			b := e.data[off : off+8]
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
			return nil
		}
		return &mem.Fault{Addr: addr, Access: mem.AccessWrite, Unmapped: true}
	}
	err := m.Proc.Space.Write64(addr, v)
	m.syncTLB()
	if err != nil {
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
// simulator-level problems (ErrFuelExhausted on a pause, malformed images,
// division by zero, heap exhaustion).
//
// Execution runs on the predecoded program the linker attaches to every
// image (runFast, fast.go). Writes and permission changes made through the
// process's Space while the machine was paused are visible to the resumed
// run.
func (m *Machine) Run(maxInstr uint64) (*Result, error) {
	m.resume()
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
		// Forget the exec page, so the next fetch checks its permission
		// even when it stays on the page just re-protected.
		m.lastExecPage = ^uint64(0)
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
