package vm

import "r2c/internal/mem"

// RunReference executes m on the reference interpreter (ref_test.go) with
// Run's contract: an incremental budget of maxInstr instructions, the same
// pause/resume points, and a Result that accumulates across calls.
func RunReference(m *Machine, maxInstr uint64) (*Result, error) {
	return m.runLegacy(maxInstr)
}

// Read64 and Write64 access memory through m's data TLB the way a load or
// store that misses the hit path does.
func Read64(m *Machine, addr uint64) (uint64, *mem.Fault) { return m.read64(addr) }
func Write64(m *Machine, addr, v uint64) *mem.Fault       { return m.write64(addr, v) }

// SyncTLB runs the TLB sync that starts every Run.
func SyncTLB(m *Machine) { m.syncTLB() }

// TLBEntry reports whether m's data TLB holds a valid entry for addr's page,
// and the hit tags of the entry that would.
func TLBEntry(m *Machine, addr uint64) (cached bool, rtag, wtag uint64) {
	e := &m.tlb[(addr>>mem.PageShift)&(tlbSize-1)]
	return e.valid && e.page == addr>>mem.PageShift, e.rtag, e.wtag
}

// TLBMisses reports the data-TLB misses m has counted so far.
func TLBMisses(m *Machine) uint64 { return m.res.TLBMisses }
