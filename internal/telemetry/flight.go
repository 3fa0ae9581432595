package telemetry

import "sort"

// FlightKind classifies one control-flow event captured by the flight
// recorder: the coarse event vocabulary a hardware last-branch-record or
// processor-trace buffer would expose, restricted to what the simulated ISA
// can observe cheaply at block boundaries.
type FlightKind uint8

const (
	// FlightCall: a direct call transferred control.
	FlightCall FlightKind = iota + 1
	// FlightCallInd: an indirect call transferred control (forward-edge
	// events — the ones AOCR gadget chains must forge).
	FlightCallInd
	// FlightRet: a return transferred control.
	FlightRet
	// FlightJump: a jump or taken conditional branch transferred control.
	FlightJump
	// FlightLoad: a scalar load touched an address within one page of a
	// BTDP guard page — the near-miss probes the paper's detection model
	// reasons about.
	FlightLoad
	// FlightProbe: an attacker-surface access (the attack framework's
	// arbitrary-read/-write oracle), recorded from outside the VM.
	FlightProbe
	// FlightFault: a memory fault stopped execution.
	FlightFault
	// FlightTrap: a booby trap detonated.
	FlightTrap
)

func (k FlightKind) String() string {
	switch k {
	case FlightCall:
		return "call"
	case FlightCallInd:
		return "call-ind"
	case FlightRet:
		return "ret"
	case FlightJump:
		return "jump"
	case FlightLoad:
		return "load"
	case FlightProbe:
		return "probe"
	case FlightFault:
		return "fault"
	case FlightTrap:
		return "trap"
	}
	return "?"
}

// FlightEvent is one recorded control-flow event. PC is the transferring
// instruction (or the probe source), To the destination (branch target,
// loaded/probed address), Instr the process's retired-instruction count at
// record time — the deterministic timestamp incidents correlate on.
type FlightEvent struct {
	Kind  FlightKind
	PC    uint64
	To    uint64
	Instr uint64
}

// FlightRecorder is a fixed-size, allocation-free ring of recent
// control-flow events — the software analogue of a flight data recorder:
// always armed, overwritten continuously, and snapshotted only when
// something detonates. Record is a store-and-increment on a
// power-of-two-masked buffer so the VM dispatch loops can call it at block
// boundaries without measurable cost; all methods are nil-safe so an
// unobserved process pays nothing.
//
// The recorder is owned by a single process and is not safe for concurrent
// use — the same single-writer discipline as the VM it instruments.
type FlightRecorder struct {
	buf  []FlightEvent
	mask uint64
	head uint64 // total events ever recorded; next slot is head&mask

	// Guard-zone geometry for NearGuard: sorted page base addresses plus a
	// [lo,hi) prefilter spanning all guards ± one page.
	guards   []uint64
	pageSize uint64
	guardLo  uint64
	guardHi  uint64
}

// NewFlightRecorder returns a recorder retaining the most recent cap events
// (rounded up to a power of two, minimum 16). cap <= 0 returns nil — the
// disabled recorder.
func NewFlightRecorder(cap int) *FlightRecorder {
	if cap <= 0 {
		return nil
	}
	n := 16
	for n < cap {
		n <<= 1
	}
	return &FlightRecorder{buf: make([]FlightEvent, n), mask: uint64(n - 1)}
}

// Record appends one event, overwriting the oldest when the ring is full.
// Nil-safe and allocation-free.
func (r *FlightRecorder) Record(k FlightKind, pc, to, instr uint64) {
	if r == nil {
		return
	}
	r.buf[r.head&r.mask] = FlightEvent{Kind: k, PC: pc, To: to, Instr: instr}
	r.head++
}

// ArmGuards installs the guard-page geometry NearGuard tests against:
// pages are page-base addresses (copied and sorted), pageSize their size.
// Nil-safe; arming with no pages disarms NearGuard.
func (r *FlightRecorder) ArmGuards(pages []uint64, pageSize uint64) {
	if r == nil {
		return
	}
	if len(pages) == 0 || pageSize == 0 {
		r.guards, r.guardLo, r.guardHi, r.pageSize = nil, 0, 0, 0
		return
	}
	g := append([]uint64(nil), pages...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	r.guards = g
	r.pageSize = pageSize
	r.guardLo = g[0] - pageSize
	r.guardHi = g[len(g)-1] + 2*pageSize
}

// NearGuard reports whether addr falls within one page of an armed guard
// page (the guard page itself, or either adjacent page). The common case —
// an address nowhere near the guard zone — is two compares; only addresses
// inside the armed envelope pay the binary search. Nil-safe.
func (r *FlightRecorder) NearGuard(addr uint64) bool {
	if r == nil || len(r.guards) == 0 {
		return false
	}
	if addr < r.guardLo || addr >= r.guardHi {
		return false
	}
	page := addr - addr%r.pageSize
	for _, cand := range [3]uint64{page - r.pageSize, page, page + r.pageSize} {
		i := sort.Search(len(r.guards), func(i int) bool { return r.guards[i] >= cand })
		if i < len(r.guards) && r.guards[i] == cand {
			return true
		}
	}
	return false
}

// Events returns the retained events, oldest first. Nil-safe (returns nil).
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil || r.head == 0 {
		return nil
	}
	n := r.head
	if n > uint64(len(r.buf)) {
		n = uint64(len(r.buf))
	}
	out := make([]FlightEvent, 0, n)
	for i := r.head - n; i < r.head; i++ {
		out = append(out, r.buf[i&r.mask])
	}
	return out
}

// Total returns how many events were ever recorded (including overwritten
// ones). Nil-safe.
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.head
}

// Cap returns the ring capacity. Nil-safe.
func (r *FlightRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}
