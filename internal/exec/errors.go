package exec

import (
	"errors"
	"fmt"
	"strings"
)

// PanicError is a worker panic converted to an ordinary error by the fan-out's
// recover barrier. The message is deterministic (the panic value only), so a
// panicking cell reports identically at any -jobs width; the goroutine stack
// — which legitimately varies with scheduling — rides along out-of-band for
// forensics.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack (debug.Stack at recover).
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("worker panic: %v", e.Value) }

// CellTimeoutError is a cell killed by the per-cell fuel watchdog: its VM
// instruction allowance (-cell-fuel, or sim.DefaultBudget) ran out before
// the simulated program ended, so a hung cell was put down instead of
// hanging the sweep.
type CellTimeoutError struct {
	Index int
	// Fuel is the instruction allowance that ran out.
	Fuel uint64
	// Err is the underlying cause (an error wrapping vm.ErrFuelExhausted).
	Err error
}

func (e *CellTimeoutError) Error() string {
	return fmt.Sprintf("watchdog: exceeded %d-instruction fuel limit", e.Fuel)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CellTimeoutError) Unwrap() error { return e.Err }

// BatchError aggregates every failed cell of one RunCells batch. RunCells
// completes the whole batch and returns partial results alongside a
// *BatchError, so one bad cell degrades to a reported failure instead of
// discarding its siblings' work. Failures are ordered by cell index, and
// Unwrap exposes the lowest-index *CellError — preserving the pre-existing
// contract that errors.As on a RunCells error finds the first failing
// cell.
type BatchError struct {
	// Total is the batch size; Failures lists the cells that failed, in
	// index order, each a *CellError wrapping the final per-cell cause.
	Total    int
	Failures []*CellError
}

func (e *BatchError) Error() string {
	if len(e.Failures) == 1 {
		return fmt.Sprintf("%d/%d cells failed: %v", 1, e.Total, e.Failures[0])
	}
	return fmt.Sprintf("%d/%d cells failed (first: %v)", len(e.Failures), e.Total, e.Failures[0])
}

// Unwrap exposes the lowest-index cell failure.
func (e *BatchError) Unwrap() error { return e.Failures[0] }

// Summary renders the multi-line failed-cell report the harnesses print
// after a partially-failed sweep: one line per failed cell, index-ordered
// and scheduling-independent.
func (e *BatchError) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d cells failed:", len(e.Failures), e.Total)
	for _, f := range e.Failures {
		fmt.Fprintf(&b, "\n  %v", f)
	}
	return b.String()
}

// AsBatchError extracts a *BatchError from a (possibly wrapped) error chain.
func AsBatchError(err error) (*BatchError, bool) {
	var be *BatchError
	ok := errors.As(err, &be)
	return be, ok
}
