package exec

import (
	"fmt"
	"strconv"
	"strings"
)

// FaultKind enumerates the failures the injection hook can force on a cell.
type FaultKind int

const (
	// FaultNone means no injected fault.
	FaultNone FaultKind = iota
	// FaultBuildFail fails the cell before its build, as a compile error would.
	FaultBuildFail
	// FaultExecFail fails the cell after load, as a sim fault would.
	FaultExecFail
	// FaultPanic panics on the worker goroutine, exercising the pool's
	// recover barrier.
	FaultPanic
	// FaultStall blocks the cell until its watchdog context fires,
	// exercising the wall-clock deadline.
	FaultStall
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultBuildFail:
		return "build-fail"
	case FaultExecFail:
		return "exec-fail"
	case FaultPanic:
		return "panic"
	case FaultStall:
		return "stall"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// anyAttempt is the wildcard attempt number in a FaultPlan entry: the fault
// fires on every attempt, so even retries keep failing. anyCell is the
// wildcard cell index ("*" in the CLI syntax): the fault fires on every
// cell.
const (
	anyAttempt = -1
	anyCell    = -1
)

type faultAt struct {
	cell    int
	attempt int
}

// FaultPlan is the deterministic fault-injection hook: a map from (cell
// index, attempt number) to the failure to force there. It exists so tests
// and the -faults flag can script hangs, panics and build/exec failures at
// exact points of a sweep and assert the engine degrades the way the
// fault-tolerance machinery promises. A nil plan injects nothing,
// and an engine with a nil plan takes no branch the clean path doesn't.
//
// Plans are written before the engine runs and only read afterwards; they
// must not be mutated mid-sweep.
type FaultPlan struct {
	m map[faultAt]FaultKind
}

// Set schedules kind at (cell, attempt). attempt counts from 0 (the first
// try); AnyAttempt entries are set via SetAll.
func (p *FaultPlan) Set(cell, attempt int, kind FaultKind) *FaultPlan {
	if p.m == nil {
		p.m = make(map[faultAt]FaultKind)
	}
	p.m[faultAt{cell, attempt}] = kind
	return p
}

// SetAll schedules kind at cell on every attempt, so the fault survives
// retries.
func (p *FaultPlan) SetAll(cell int, kind FaultKind) *FaultPlan {
	return p.Set(cell, anyAttempt, kind)
}

// At returns the fault scheduled for (cell, attempt), most specific entry
// first: exact (cell, attempt), then (cell, any), (any, attempt), (any,
// any). A nil plan returns FaultNone.
func (p *FaultPlan) At(cell, attempt int) FaultKind {
	if p == nil {
		return FaultNone
	}
	for _, q := range [...]faultAt{
		{cell, attempt}, {cell, anyAttempt}, {anyCell, attempt}, {anyCell, anyAttempt},
	} {
		if k, ok := p.m[q]; ok {
			return k
		}
	}
	return FaultNone
}

// Len returns the number of scheduled faults.
func (p *FaultPlan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.m)
}

// ParseFaultPlan parses the -faults CLI syntax: a comma-separated list of
// CELL:KIND or CELL@ATTEMPT:KIND entries, where KIND is one of build-fail,
// exec-fail, panic or stall. CELL may be "*" to hit every cell. Without
// @ATTEMPT the fault fires on every attempt. Example:
// "3:panic,7@0:exec-fail" panics cell 3 always and fails cell 7's first
// execution (so a retry succeeds). An empty string is a nil plan.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &FaultPlan{}
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		loc, kindName, ok := strings.Cut(ent, ":")
		if !ok {
			return nil, fmt.Errorf("fault plan: entry %q: want CELL[@ATTEMPT]:KIND", ent)
		}
		var kind FaultKind
		switch kindName {
		case "build-fail":
			kind = FaultBuildFail
		case "exec-fail":
			kind = FaultExecFail
		case "panic":
			kind = FaultPanic
		case "stall":
			kind = FaultStall
		default:
			return nil, fmt.Errorf("fault plan: entry %q: unknown kind %q (want build-fail, exec-fail, panic or stall)", ent, kindName)
		}
		cellStr, attemptStr, hasAttempt := strings.Cut(loc, "@")
		cell := anyCell
		if cellStr != "*" {
			var err error
			cell, err = strconv.Atoi(cellStr)
			if err != nil || cell < 0 {
				return nil, fmt.Errorf("fault plan: entry %q: bad cell index %q", ent, cellStr)
			}
		}
		attempt := anyAttempt
		if hasAttempt {
			var err error
			attempt, err = strconv.Atoi(attemptStr)
			if err != nil || attempt < 0 {
				return nil, fmt.Errorf("fault plan: entry %q: bad attempt %q", ent, attemptStr)
			}
		}
		p.Set(cell, attempt, kind)
	}
	return p, nil
}
