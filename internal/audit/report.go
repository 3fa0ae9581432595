package audit

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"

	"r2c/internal/defense"
	"r2c/internal/telemetry"
)

// Bucket is one (value, count) cell of a DistStat, in ascending value order.
type Bucket struct {
	Value int64  `json:"value"`
	Count uint64 `json:"count"`
}

// DistStat summarizes one scalar diversity dimension: the full empirical
// distribution plus the headline numbers a reader scans for.
type DistStat struct {
	Count    uint64   `json:"count"`
	Distinct int      `json:"distinct"`
	Min      int64    `json:"min"`
	Max      int64    `json:"max"`
	Mean     float64  `json:"mean"`
	Bits     float64  `json:"bits"`
	Buckets  []Bucket `json:"buckets,omitempty"`
}

// newDistStat folds a Dist into its report form.
func newDistStat(d Dist) DistStat {
	s := DistStat{Count: d.Total(), Distinct: len(d)}
	if s.Count == 0 {
		return s
	}
	support := d.Support()
	s.Min, s.Max = support[0], support[len(support)-1]
	var sum float64
	for _, v := range support {
		c := d[v]
		sum += float64(v) * float64(c)
		s.Buckets = append(s.Buckets, Bucket{Value: v, Count: c})
	}
	s.Mean = roundStat(sum / float64(s.Count))
	s.Bits = roundStat(d.Shannon())
	return s
}

// OrderStat reports the diversity of one placement order (functions in text,
// globals in data) along both axes that matter: whole-permutation entropy
// (did the order change at all?) and positional entropy (did it change
// everywhere, or just in one swap?).
type OrderStat struct {
	Items       int         `json:"items"`
	Permutation EntropyStat `json:"permutation"`
	Positional  EntropyStat `json:"positional"`
}

// RegAllocStat reports register-allocation divergence across variants.
type RegAllocStat struct {
	// Funcs is how many functions were measured (present in all variants
	// with a recorded allocation order).
	Funcs int `json:"funcs"`
	// MeanEntropy averages, over those functions, the entropy of the
	// allocation-pool order across variants.
	MeanEntropy EntropyStat `json:"mean_entropy"`
	// DivergedFrac is the fraction of functions whose order differed in at
	// least one variant pair.
	DivergedFrac float64 `json:"diverged_frac"`
}

// Report is the full diversity audit of one (module, config, N) triple. It
// is pure data: byte-identical JSON for identical inputs at any -jobs
// width, which the determinism tests and golden files rely on.
type Report struct {
	Module            string `json:"module"`
	ModuleHash        string `json:"module_hash"`
	Config            string `json:"config"`
	ConfigFingerprint string `json:"config_fingerprint"`
	Variants          int    `json:"variants"`
	BaseSeed          uint64 `json:"base_seed"`
	GadgetLen         int    `json:"gadget_len"`

	FuncOrder   OrderStat    `json:"func_order"`
	GlobalOrder OrderStat    `json:"global_order"`
	RegAlloc    RegAllocStat `json:"reg_alloc"`

	// StrategyMix counts call sites by BTRA setup strategy across all
	// variants (push / avx2 / none).
	StrategyMix map[string]uint64 `json:"strategy_mix"`

	BTRAPre     DistStat `json:"btra_pre"`
	BTRAPost    DistStat `json:"btra_post"`
	NOPLen      DistStat `json:"nop_len"`
	PadBytes    DistStat `json:"pad_bytes"`
	BTDPPerFunc DistStat `json:"btdp_per_func"`
	BTDPSlotOff DistStat `json:"btdp_slot_off"`

	Survivor SurvivorSummary `json:"survivor"`

	// cfg retains the audited configuration for Publish's per-knob gauges;
	// deliberately absent from the JSON report (the fingerprint identifies
	// it) and from reports rehydrated from JSON, where Publish simply skips
	// the knob gauges.
	cfg *defense.Config
}

// fold builds the report from the index-ordered variant summaries. It runs
// strictly serially; all parallelism ended with the builds.
func fold(opt Options, vars []*variantSummary) *Report {
	hash := opt.Module.ContentHash()
	rep := &Report{
		Module:            opt.Module.Name,
		ModuleHash:        hex.EncodeToString(hash[:]),
		Config:            opt.Cfg.Name,
		ConfigFingerprint: opt.Cfg.Fingerprint(),
		Variants:          len(vars),
		BaseSeed:          opt.BaseSeed,
		GadgetLen:         gadgetLen,
		StrategyMix:       map[string]uint64{},
		cfg:               &opt.Cfg,
	}

	funcOrders := make([][]string, len(vars))
	globalOrders := make([][]string, len(vars))
	for i, v := range vars {
		funcOrders[i] = v.funcOrder
		globalOrders[i] = v.globalOrder
		for k, c := range v.strategies {
			rep.StrategyMix[k] += c
		}
	}
	rep.FuncOrder = orderStat(funcOrders, len(vars))
	rep.GlobalOrder = orderStat(globalOrders, len(vars))
	rep.RegAlloc.MeanEntropy, rep.RegAlloc.DivergedFrac, rep.RegAlloc.Funcs =
		regAllocStats(vars, len(vars))

	rep.BTRAPre = newDistStat(distOf(vars, func(v *variantSummary) []int64 { return v.pre }))
	rep.BTRAPost = newDistStat(distOf(vars, func(v *variantSummary) []int64 { return v.post }))
	rep.NOPLen = newDistStat(distOf(vars, func(v *variantSummary) []int64 { return v.nops }))
	rep.PadBytes = newDistStat(distOf(vars, func(v *variantSummary) []int64 { return v.padSizes }))
	rep.BTDPPerFunc = newDistStat(distOf(vars, func(v *variantSummary) []int64 { return v.btdpCounts }))
	rep.BTDPSlotOff = newDistStat(distOf(vars, func(v *variantSummary) []int64 { return v.btdpSlotOffs }))

	rep.Survivor = survivorAnalysis(vars)
	return rep
}

// orderStat measures one order dimension across variants.
func orderStat(orders [][]string, variants int) OrderStat {
	items := 0
	if len(orders) > 0 {
		items = len(orders[0])
	}
	return OrderStat{
		Items:       items,
		Permutation: NewEntropyStat(PermutationEntropy(orders), variants),
		Positional:  NewEntropyStat(PositionalEntropy(orders), variants),
	}
}

// WriteJSON writes the canonical machine-readable report: indented JSON with
// struct-declared field order, sorted map keys, and roundStat-canonical
// floats — byte-identical for identical inputs.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText writes the human-readable report.
func (r *Report) WriteText(w io.Writer) error {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("diversity audit: module %s (%s…)\n", r.Module, r.ModuleHash[:12])
	p("config %s (%s…), %d variants, base seed %d, gadget window %d\n\n",
		r.Config, r.ConfigFingerprint[:12], r.Variants, r.BaseSeed, r.GadgetLen)

	p("placement entropy (bits, ceiling %.2f):\n", r.FuncOrder.Permutation.MaxBits)
	p("  %-22s perm %6.3f (%.0f%%)  positional %6.3f\n", fmt.Sprintf("func order (%d):", r.FuncOrder.Items),
		r.FuncOrder.Permutation.Bits, 100*r.FuncOrder.Permutation.Normalized, r.FuncOrder.Positional.Bits)
	p("  %-22s perm %6.3f (%.0f%%)  positional %6.3f\n", fmt.Sprintf("global order (%d):", r.GlobalOrder.Items),
		r.GlobalOrder.Permutation.Bits, 100*r.GlobalOrder.Permutation.Normalized, r.GlobalOrder.Positional.Bits)
	p("  %-22s mean %6.3f (%.0f%%)  diverged %.0f%% of %d funcs\n\n", "reg-alloc order:",
		r.RegAlloc.MeanEntropy.Bits, 100*r.RegAlloc.MeanEntropy.Normalized,
		100*r.RegAlloc.DivergedFrac, r.RegAlloc.Funcs)

	p("code-generation distributions:\n")
	for _, row := range []struct {
		name string
		d    DistStat
	}{
		{"btra pre", r.BTRAPre}, {"btra post", r.BTRAPost}, {"nop run", r.NOPLen},
		{"global pad", r.PadBytes}, {"btdp/func", r.BTDPPerFunc}, {"btdp slot off", r.BTDPSlotOff},
	} {
		if row.d.Count == 0 {
			p("  %-14s (none)\n", row.name)
			continue
		}
		p("  %-14s n=%-6d distinct=%-3d range [%d,%d] mean %.2f entropy %.3f bits\n",
			row.name, row.d.Count, row.d.Distinct, row.d.Min, row.d.Max, row.d.Mean, row.d.Bits)
	}
	if len(r.StrategyMix) > 0 {
		keys := make([]string, 0, len(r.StrategyMix))
		for k := range r.StrategyMix {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		p("  %-14s", "btra setup")
		for _, k := range keys {
			p(" %s=%d", k, r.StrategyMix[k])
		}
		p("\n")
	}

	s := &r.Survivor
	p("\nsurvivor surface (%d pairs; mean/max fraction surviving):\n", s.Pairs)
	p("  %-14s %6.4f / %6.4f\n", "func offsets", s.MeanFuncOffset, s.MaxFuncOffset)
	p("  %-14s %6.4f / %6.4f\n", "global offsets", s.MeanGlobalOffset, s.MaxGlobalOffset)
	p("  %-14s %6.4f / %6.4f\n", "gadget windows", s.MeanGadget, s.MaxGadget)
	p("  %-14s %6.4f / %6.4f\n", "data words", s.MeanDataWord, s.MaxDataWord)
	if len(s.TopFuncs) > 0 {
		p("  surviving funcs:")
		for _, sym := range s.TopFuncs {
			p(" %s(%d)", sym.Name, sym.Pairs)
		}
		p("\n")
	}
	if len(s.TopGlobals) > 0 {
		p("  surviving globals:")
		for _, sym := range s.TopGlobals {
			p(" %s(%d)", sym.Name, sym.Pairs)
		}
		p("\n")
	}
	return nil
}

// Fixed histogram bounds per audit dimension. Content-independent constants
// so the /metrics output of two audits of the same module is comparable.
var (
	btraBounds    = []float64{0, 1, 2, 4, 6, 8, 12, 16}
	nopBounds     = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16}
	padBounds     = []float64{0, 8, 16, 32, 64, 128, 256, 512}
	btdpBounds    = []float64{0, 1, 2, 3, 4, 5, 8}
	slotOffBounds = []float64{0, 8, 16, 32, 64, 128, 256}
)

// Publish exports the report into the observer's registry: one histogram
// per code-generation distribution, entropy and survivor gauges, and one
// gauge per defense knob — so a /metrics scrape carries both the measured
// diversity and the configuration that produced it. Nil-safe.
func (r *Report) Publish(obs *telemetry.Observer) {
	if obs == nil || obs.Reg() == nil {
		return
	}
	cfg := []string{"config", r.Config}
	observeDist := func(name string, bounds []float64, d DistStat) {
		h := obs.Histogram(name, bounds, cfg...)
		for _, b := range d.Buckets {
			for i := uint64(0); i < b.Count; i++ {
				h.Observe(float64(b.Value))
			}
		}
	}
	observeDist("audit.btra.pre", btraBounds, r.BTRAPre)
	observeDist("audit.btra.post", btraBounds, r.BTRAPost)
	observeDist("audit.nop.len", nopBounds, r.NOPLen)
	observeDist("audit.pad.bytes", padBounds, r.PadBytes)
	observeDist("audit.btdp.per_func", btdpBounds, r.BTDPPerFunc)
	observeDist("audit.btdp.slot_off", slotOffBounds, r.BTDPSlotOff)

	obs.Gauge("audit.variants", cfg...).Set(float64(r.Variants))
	obs.Gauge("audit.entropy.bits", append([]string{"order", "func"}, cfg...)...).Set(r.FuncOrder.Permutation.Bits)
	obs.Gauge("audit.entropy.bits", append([]string{"order", "global"}, cfg...)...).Set(r.GlobalOrder.Permutation.Bits)
	obs.Gauge("audit.entropy.bits", append([]string{"order", "regalloc"}, cfg...)...).Set(r.RegAlloc.MeanEntropy.Bits)
	surf := func(name string, mean, max float64) {
		obs.Gauge("audit.survivor.mean", append([]string{"surface", name}, cfg...)...).Set(mean)
		obs.Gauge("audit.survivor.max", append([]string{"surface", name}, cfg...)...).Set(max)
	}
	surf("func_offset", r.Survivor.MeanFuncOffset, r.Survivor.MaxFuncOffset)
	surf("global_offset", r.Survivor.MeanGlobalOffset, r.Survivor.MaxGlobalOffset)
	surf("gadget", r.Survivor.MeanGadget, r.Survivor.MaxGadget)
	surf("data_word", r.Survivor.MeanDataWord, r.Survivor.MaxDataWord)
	if r.cfg != nil {
		PublishConfig(obs, *r.cfg)
	}
}

// PublishConfig exports every numeric and boolean knob of a defense
// configuration as an audit.knob gauge labeled by knob and config name, so
// dashboards can correlate measured diversity with the settings that
// produced it.
func PublishConfig(obs *telemetry.Observer, cfg defense.Config) {
	if obs == nil || obs.Reg() == nil {
		return
	}
	v := reflect.ValueOf(cfg)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		var val float64
		switch v.Field(i).Kind() {
		case reflect.Bool:
			if v.Field(i).Bool() {
				val = 1
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			val = float64(v.Field(i).Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			val = float64(v.Field(i).Uint())
		default:
			continue
		}
		obs.Gauge("audit.knob", "knob", f.Name, "config", cfg.Name).Set(val)
	}
}
