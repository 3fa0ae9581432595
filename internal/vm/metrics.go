package vm

import (
	"r2c/internal/heap"
	"r2c/internal/isa"
	"r2c/internal/telemetry"
)

// rssBucketBounds are the fixed histogram buckets for RSS samples (bytes).
var rssBucketBounds = []float64{
	256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// metricHandles are the registry series PublishMetrics feeds, resolved once
// per (machine, registry) and kept across Reset, so a machine that serves
// request after request looks nothing up by name. Series the export creates
// only once they have something to say (the hit rate, RSS samples, each
// instruction kind, the heap gauges) are resolved at that same moment, so
// the registry ends up holding exactly the series it always did.
type metricHandles struct {
	reg *telemetry.Registry

	instructions, calls, icRefs, icMisses, tlbHits, tlbMisses *telemetry.Counter
	cycles, stallCycles, rssMax                               *telemetry.Gauge

	hitRate     *telemetry.Gauge
	rssSamples  *telemetry.Histogram
	classInstr  [32]*telemetry.Counter
	classCycles [32]*telemetry.Gauge
	heap        *heap.Gauges
}

func newMetricHandles(reg *telemetry.Registry) *metricHandles {
	return &metricHandles{
		reg:          reg,
		instructions: reg.Counter("vm.instructions"),
		calls:        reg.Counter("vm.calls"),
		cycles:       reg.Gauge("vm.cycles"),
		stallCycles:  reg.Gauge("vm.icache.stall_cycles"),
		icRefs:       reg.Counter("vm.icache.refs"),
		icMisses:     reg.Counter("vm.icache.misses"),
		tlbHits:      reg.Counter("vm.tlb.hits"),
		tlbMisses:    reg.Counter("vm.tlb.misses"),
		rssMax:       reg.Gauge("vm.rss.max_bytes"),
	}
}

// PublishMetrics exports the machine's accumulated counters into reg. The
// export is delta-based: a machine resumed across several Run calls can be
// published after each (or once at the end) without double counting, and
// many machines can share one registry, which then aggregates a whole
// experiment. A nil registry is a no-op.
func (m *Machine) PublishMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	if m.met == nil || m.met.reg != reg {
		m.met = newMetricHandles(reg)
	}
	h := m.met
	du := func(cur uint64, prev *uint64) uint64 { d := cur - *prev; *prev = cur; return d }
	df := func(cur float64, prev *float64) float64 { d := cur - *prev; *prev = cur; return d }

	h.instructions.Add(du(m.res.Instructions, &m.pub.instructions))
	h.calls.Add(du(m.res.Calls, &m.pub.calls))
	h.cycles.Add(df(m.res.Cycles, &m.pub.cycles))
	h.stallCycles.Add(df(m.res.ICacheStallCycles, &m.pub.stallCycles))

	h.icRefs.Add(du(m.res.ICacheRefs, &m.pub.icRefs))
	h.icMisses.Add(du(m.res.ICacheMisses, &m.pub.icMisses))
	if m.res.ICacheRefs > 0 {
		if h.hitRate == nil {
			h.hitRate = reg.Gauge("vm.icache.hit_rate")
		}
		h.hitRate.Set(1 - float64(m.res.ICacheMisses)/float64(m.res.ICacheRefs))
	}
	h.tlbHits.Add(du(m.res.TLBHits, &m.pub.tlbHits))
	h.tlbMisses.Add(du(m.res.TLBMisses, &m.pub.tlbMisses))

	for k := range m.res.ClassInstr {
		if n := du(m.res.ClassInstr[k], &m.pub.classInstr[k]); n > 0 {
			if h.classInstr[k] == nil {
				h.classInstr[k] = reg.Counter("vm.instr", "kind", isa.Kind(k).String())
			}
			h.classInstr[k].Add(n)
		}
		if c := df(m.res.ClassCycles[k], &m.pub.classCycles[k]); c > 0 {
			if h.classCycles[k] == nil {
				h.classCycles[k] = reg.Gauge("vm.instr_cycles", "kind", isa.Kind(k).String())
			}
			h.classCycles[k].Add(c)
		}
	}

	h.rssMax.SetMax(float64(m.res.MaxRSSBytes))
	if n := len(m.res.RSSSamples); n > m.pub.rssSamples {
		if h.rssSamples == nil {
			h.rssSamples = reg.Histogram("vm.rss.sample_bytes", rssBucketBounds)
		}
		for _, s := range m.res.RSSSamples[m.pub.rssSamples:] {
			h.rssSamples.Observe(float64(s))
		}
		m.pub.rssSamples = n
	}

	if m.Proc != nil && m.Proc.Heap != nil {
		if h.heap == nil {
			h.heap = heap.NewGauges(reg)
		}
		m.Proc.Heap.PublishMetrics(h.heap)
	}
}
