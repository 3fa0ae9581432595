package vm

import (
	"sort"

	"r2c/internal/telemetry"
)

// FuncStat is one function's share of the simulated cycle budget.
type FuncStat struct {
	Name string
	// SelfCycles are cycles charged while this function's code executed.
	SelfCycles float64
	// CumCycles are cycles elapsed while the function was live on the call
	// stack (self plus callees; recursive activations counted once).
	CumCycles float64
	// Calls counts activations via an executed call instruction.
	Calls uint64
}

type profFrame struct {
	st    *FuncStat
	start float64
	// path is the folded call path ("caller;...;this") of the frame, built
	// incrementally at push time so folded-stack attribution never walks
	// the stack.
	path string
	// rec marks a recursive activation: the function was already live when
	// this frame was pushed, so closing it must not add to CumCycles again.
	rec bool
}

// FuncProfiler attributes simulated cycles to functions, keyed by the image
// symbol table. It observes only control transfers (call/ret/cross-function
// jump), so a profiled run executes the exact same instruction stream, RNG
// draws and cycle charges as an unprofiled one — attribution works on
// deltas of the machine's own cycle counter between transfers.
type FuncProfiler struct {
	stats   map[string]*FuncStat
	stack   []profFrame
	onStack map[*FuncStat]int
	cur     *FuncStat
	mark    float64 // machine cycles at the last attribution point
	// paths attributes self cycles to full call paths (semicolon-joined
	// frames, flamegraph.pl's folded-stack key) alongside the flat stats.
	paths map[string]float64
}

func newFuncProfiler(entry string, cycles float64) *FuncProfiler {
	p := &FuncProfiler{
		stats:   map[string]*FuncStat{},
		onStack: map[*FuncStat]int{},
		paths:   map[string]float64{},
		mark:    cycles,
	}
	st := p.stat(entry)
	p.cur = st
	p.push(st, entry, cycles)
	return p
}

func (p *FuncProfiler) stat(name string) *FuncStat {
	st := p.stats[name]
	if st == nil {
		st = &FuncStat{Name: name}
		p.stats[name] = st
	}
	return st
}

func (p *FuncProfiler) push(st *FuncStat, path string, cycles float64) {
	p.stack = append(p.stack, profFrame{st: st, start: cycles, path: path, rec: p.onStack[st] > 0})
	p.onStack[st]++
}

// curPath is the folded call path cycles are currently charged to. When the
// current function diverges from the top frame (a tail call or hijacked jump
// moved control without pushing), the divergent function is appended so the
// folded view shows where the time really went.
func (p *FuncProfiler) curPath() string {
	n := len(p.stack)
	if n == 0 {
		if p.cur != nil {
			return p.cur.Name
		}
		return ""
	}
	top := p.stack[n-1]
	if p.cur == nil || p.cur == top.st {
		return top.path
	}
	return top.path + ";" + p.cur.Name
}

// attribute charges the cycles since the last attribution point to the
// current function's self time and to the current folded call path.
func (p *FuncProfiler) attribute(cycles float64) {
	if delta := cycles - p.mark; p.cur != nil && delta != 0 {
		p.cur.SelfCycles += delta
		p.paths[p.curPath()] += delta
	}
	p.mark = cycles
}

// onCall records a call edge into callee at the given cycle count.
func (p *FuncProfiler) onCall(callee string, cycles float64) {
	p.attribute(cycles)
	path := p.curPath() + ";" + callee
	st := p.stat(callee)
	st.Calls++
	p.push(st, path, cycles)
	p.cur = st
}

// onRet records a return landing in now.
func (p *FuncProfiler) onRet(now string, cycles float64) {
	p.attribute(cycles)
	if n := len(p.stack); n > 0 {
		f := p.stack[n-1]
		p.stack = p.stack[:n-1]
		p.onStack[f.st]--
		if !f.rec {
			f.st.CumCycles += cycles - f.start
		}
	}
	// Trust the machine, not our shadow stack: a corrupted return address
	// may land anywhere (that mismatch is exactly what attacks exploit).
	p.cur = p.stat(now)
}

// onJump records a cross-function jump (a tail call, or a hijacked branch).
// The open frame keeps its original start; its cumulative span closes when
// the eventual return pops it.
func (p *FuncProfiler) onJump(now string, cycles float64) {
	p.attribute(cycles)
	p.cur = p.stat(now)
}

// sync flushes self-time attribution up to the given cycle count; the
// machine calls it whenever a Run ends (halt, fault, trap or budget pause).
func (p *FuncProfiler) sync(cycles float64) { p.attribute(cycles) }

// Snapshot returns per-function stats sorted by descending self cycles.
// Cumulative time for frames still open (a paused or trapped machine)
// extends to the last synced cycle count.
func (p *FuncProfiler) Snapshot() []FuncStat {
	out := make([]FuncStat, 0, len(p.stats))
	open := map[*FuncStat]float64{}
	for _, f := range p.stack {
		if !f.rec {
			if _, dup := open[f.st]; !dup {
				open[f.st] = p.mark - f.start
			}
		}
	}
	for _, st := range p.stats {
		c := *st
		c.CumCycles += open[st]
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfCycles != out[j].SelfCycles {
			return out[i].SelfCycles > out[j].SelfCycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// FoldedStacks returns the per-call-path self-cycle attribution sorted by
// path — one entry per distinct folded stack ("caller;...;callee").
func (p *FuncProfiler) FoldedStacks() []FoldedStack {
	out := make([]FoldedStack, 0, len(p.paths))
	for path, cycles := range p.paths {
		out = append(out, FoldedStack{Path: path, Cycles: cycles})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// FoldedStack is one call path's share of the cycle budget.
type FoldedStack struct {
	Path   string
	Cycles float64
}

// Publish adds the profile's totals to the registry as counters keyed by
// function name (flat profile) and by folded call path (stack profile).
// Call it once per profiler (typically when its run ends); repeated runs
// into the same registry accumulate, which is what a harness that
// aggregates many seeded runs wants.
func (p *FuncProfiler) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for _, st := range p.Snapshot() {
		reg.Counter("vm.func.self_cycles", "fn", st.Name).Add(uint64(st.SelfCycles))
		reg.Counter("vm.func.cum_cycles", "fn", st.Name).Add(uint64(st.CumCycles))
		reg.Counter("vm.func.calls", "fn", st.Name).Add(st.Calls)
	}
	for _, fs := range p.FoldedStacks() {
		reg.Counter("vm.stack.self_cycles", "stack", fs.Path).Add(uint64(fs.Cycles))
	}
}
