package exec

// FaultKind enumerates the failures the injection hook can force on a cell.
type FaultKind int

const (
	// FaultNone means no injected fault.
	FaultNone FaultKind = iota
	// FaultBuildFail fails the cell before its build, as a compile error would.
	FaultBuildFail
	// FaultExecFail fails the cell after load, as a sim fault would.
	FaultExecFail
	// FaultPanic panics on the worker goroutine, exercising the fan-out's
	// recover barrier.
	FaultPanic
)

// anyAttempt is the wildcard attempt number in a FaultPlan entry: the fault
// fires on every attempt, so even retries keep failing.
const anyAttempt = -1

type faultAt struct {
	cell    int
	attempt int
}

// FaultPlan is the deterministic fault-injection hook: a map from (cell
// index, attempt number) to the failure to force there. It exists so tests
// can script panics and build/exec failures at exact points of a sweep and
// assert the engine degrades the way the fault-tolerance machinery
// promises. A nil plan injects nothing, and an engine with a nil plan takes
// no branch the clean path doesn't.
//
// Plans are written before the engine runs and only read afterwards; they
// must not be mutated mid-sweep.
type FaultPlan struct {
	m map[faultAt]FaultKind
}

// Set schedules kind at (cell, attempt). attempt counts from 0 (the first
// try); every-attempt entries are set via SetAll.
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
// first: exact (cell, attempt), then (cell, any). A nil plan returns
// FaultNone.
func (p *FaultPlan) At(cell, attempt int) FaultKind {
	if p == nil {
		return FaultNone
	}
	if k, ok := p.m[faultAt{cell, attempt}]; ok {
		return k
	}
	if k, ok := p.m[faultAt{cell, anyAttempt}]; ok {
		return k
	}
	return FaultNone
}
