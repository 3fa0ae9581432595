package vm

// RunReference executes m on the reference interpreter (ref_test.go) with
// Run's contract: an incremental budget of maxInstr instructions, the same
// pause/resume points, and a Result that accumulates across calls.
func RunReference(m *Machine, maxInstr uint64) (*Result, error) {
	return m.runLegacy(maxInstr)
}
