package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// This file renders the per-function cycle profile a -profile run
// accumulates in the registry: the hot-function table and folded stacks.

// WriteHotFunctions renders the top-n hot-function table accumulated in the
// registry by the -profile runs: self cycles (with share of the total), the
// cumulative cycles of the function and its callees, and call counts,
// aggregated across every profiled run that published into the registry.
func (r *Registry) WriteHotFunctions(w io.Writer, n int) {
	snap := r.Snapshot()
	top := snap.TopCounters("vm.func.self_cycles", n)
	if len(top) == 0 {
		return
	}
	var total float64
	for _, kv := range snap.TopCounters("vm.func.self_cycles", 0) {
		total += kv.Value
	}
	fmt.Fprintf(w, "hot functions (aggregated over profiled runs):\n")
	fmt.Fprintf(w, "%4s %-24s %14s %7s %14s %10s\n", "#", "function", "self-cycles", "self%", "cum-cycles", "calls")
	for i, kv := range top {
		_, labels := ParseKey(kv.Key)
		fn := labels["fn"]
		cum := snap.Counters[Key("vm.func.cum_cycles", "fn", fn)]
		calls := snap.Counters[Key("vm.func.calls", "fn", fn)]
		pct := 0.0
		if total > 0 {
			pct = kv.Value / total * 100
		}
		fmt.Fprintf(w, "%4d %-24s %14.0f %6.1f%% %14d %10d\n", i+1, fn, kv.Value, pct, cum, calls)
	}
}

// WriteFolded renders the folded-stack cycle profile accumulated in the
// registry by the -profile runs: one "frame;frame;frame cycles" line per
// distinct call path, aggregated across every profiled run — the input
// flamegraph.pl and speedscope consume directly.
func (r *Registry) WriteFolded(w io.Writer) {
	snap := r.Snapshot()
	totals := map[string]uint64{}
	paths := make([]string, 0, len(snap.Counters))
	for k, v := range snap.Counters {
		base, labels := ParseKey(k)
		if base != "vm.stack.self_cycles" || labels["stack"] == "" {
			continue
		}
		if _, seen := totals[labels["stack"]]; !seen {
			paths = append(paths, labels["stack"])
		}
		totals[labels["stack"]] += v
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(w, "%s %d\n", p, totals[p])
	}
}
