// Package fleet runs R2C as a long-lived multi-variant serving service —
// the closed loop the paper's Section 7.3 and the "instant re-randomization"
// principle point at: an open-loop request generator drives simulated
// traffic across N diversified variants of one workload, every request is
// screened for detection signals (booby traps, faults, liveness hangs, and
// — in supervised mode — MVEE divergence), and any signal quarantines the
// variant and re-diversifies it live with a fresh seed while the rest of
// the fleet keeps serving.
//
// Time is split into two domains. The *simulated* domain is a deterministic
// discrete-event simulation: request arrivals follow a Poisson process from
// the repository's seeded RNG, service times are the VM's modeled seconds,
// and queueing, quarantine windows and rejoin times all live on that clock —
// so throughput, tail latency and every incident record are byte-identical
// across runs and -jobs widths. The *wall-clock* domain is where the real
// re-diversification work happens: a quarantined variant's replacement
// image is built concurrently (through the exec engine's content-addressed
// cache) while the serve loop keeps executing requests, and the measured
// wall seconds per replacement are the fleet's real time-to-replace.
package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"r2c/internal/attack"
	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/image"
	"r2c/internal/incident"
	"r2c/internal/mvee"
	"r2c/internal/rng"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
)

// Attack injection modes.
const (
	// ModeOverwrite writes Value at the Target data symbol's address — the
	// plain AOCR data-corruption payload. Under MVEE supervision the same
	// absolute write lands differently in every variant and diverges; in
	// single-variant mode it is silent (the ground-truth counter the
	// report surfaces as the MVEE's value).
	ModeOverwrite = "overwrite"
	// ModeHijack replays the attack victim's control-flow hijack: unlock
	// secret_key with the magic argument and repoint admin_ptr at
	// secret_disclose, using addresses leaked from the pinned variant.
	ModeHijack = "hijack"
)

// Heal strategies for a quarantined variant.
const (
	// HealRebuild builds a replacement image with a fresh diversification
	// seed — full re-diversification, obsoleting every address the
	// attacker leaked (the "instant re-randomization" response).
	HealRebuild = "rebuild"
	// HealReroll replaces the image with a copy whose BTRA artifacts are
	// re-randomized (image.Reroll). Cheap, but the layout survives, so
	// leaked code/data addresses stay valid — the paper's "more dynamism
	// is less effective" ablation as a fleet response policy.
	HealReroll = "reroll"
)

// Schedule scripts the attack pressure: from request Start, every Every-th
// request carries a corrupting payload against the pinned victim variant.
type Schedule struct {
	// Start is the first attacked request index; Every the attack period.
	// Every <= 0 or an empty Mode disables injection.
	Start int
	Every int
	// Mode is ModeOverwrite or ModeHijack.
	Mode string
	// Target is the data symbol ModeOverwrite corrupts; Value what it
	// writes there.
	Target string
	Value  uint64
	// Adaptive lets the attacker re-leak the victim's layout after a heal
	// (a repeated-leak JIT-ROP-style adversary); otherwise the knowledge
	// from the first leak goes stale the moment the variant re-diversifies.
	Adaptive bool
}

// active reports whether request req carries the corrupting payload.
func (s Schedule) active(req int) bool {
	return s.Mode != "" && s.Every > 0 && req >= s.Start && (req-s.Start)%s.Every == 0
}

// Options configures a fleet run.
type Options struct {
	Module *tir.Module
	Cfg    defense.Config
	Prof   *vm.Profile

	// Variants is the fleet size; BaseSeed seeds variant i with BaseSeed+i
	// and replacement builds with fresh seeds above that range.
	Variants int
	BaseSeed uint64

	// Requests is how many requests the generator emits. RateRPS is the
	// open-loop Poisson arrival rate in simulated requests/second; <= 0
	// auto-calibrates to ~70% of the fleet's measured service capacity.
	Requests int
	RateRPS  float64

	// MVEE >= 2 supervises every request across that many variants and
	// adds divergence detection; otherwise each request runs on a single
	// variant with trap/fault/hang detection only.
	MVEE int
	// RequestFuel bounds a request's instructions in both modes (0 = a
	// default sized for single-request handlers). A supervised request's
	// budget is counted in mveeSlice-instruction slices, so it is
	// RequestFuel rounded up to whole slices.
	RequestFuel uint64

	// Heal selects the quarantine response (HealRebuild default).
	// RebuildLatency is the simulated seconds a quarantined variant stays
	// out of rotation; <= 0 derives it from the measured service time.
	Heal           string
	RebuildLatency float64

	Attack Schedule

	// Eng runs replacement builds (and the initial fan-out) through the
	// worker pool and build cache, and its Incidents log (when set)
	// receives the detection records. Required.
	Eng *exec.Engine
	// Obs receives fleet metrics; it may be nil.
	Obs *telemetry.Observer
}

// mveeSlice is the supervisor's slice in instructions, the unit its
// per-variant budget (mvee.Engine.Run's sliceInstrs × maxSlices) counts in.
const mveeSlice = 100_000

// Slot states.
const (
	stateServing     = "serving"
	stateQuarantined = "quarantined"
	stateFailed      = "failed"
)

// slot is one variant position in the fleet. The serve loop owns all
// fields; the fleet mutex guards the subset the live view reads.
type slot struct {
	id   int
	seed uint64
	gen  int
	img  *image.Image
	// snap is img loaded under seed: every request forks it, so the serve
	// loop never runs the loader or the BTDP constructor.
	snap *rt.Snapshot
	// mach runs every request the slot serves, re-armed per fork by
	// vm.Machine.Reset. A heal keeps it: Reset takes the image from the
	// process.
	mach *vm.Machine

	state    string
	freeAt   float64 // simulated time the variant is next idle
	rejoinAt float64 // simulated time a quarantined variant re-enters rotation
	served   int
	quars    int

	heal     chan healDone
	wallQuar time.Time
}

type healDone struct {
	img  *image.Image
	snap *rt.Snapshot
	seed uint64
	err  error
}

type write struct{ addr, value uint64 }

// machine returns the slot's machine armed on p, building it on first use.
func (s *slot) machine(p *rt.Process, prof *vm.Profile) *vm.Machine {
	if s.mach == nil {
		s.mach = vm.New(p, prof)
	} else {
		s.mach.Reset(p)
	}
	return s.mach
}

// counter is one of the fleet's per-request metric series. Its registry
// handle is resolved on the first increment and kept, so the serve loop
// looks nothing up by name per request, while the registry still holds
// only the series a run actually increments.
type counter struct {
	obs    *telemetry.Observer
	name   string
	labels []string
	c      *telemetry.Counter
}

func (c *counter) Inc() {
	if c.c == nil {
		c.c = c.obs.Counter(c.name, c.labels...)
	}
	c.c.Inc()
}

// detectionKinds are the detection signals a request can raise.
var detectionKinds = []string{"trap", "fault", "divergence", "hang", "error"}

// Fleet is a serving fleet mid-run. Create with New, drive with Serve;
// Live may be polled from other goroutines (the ops endpoint) at any time.
type Fleet struct {
	o        Options
	campaign string
	width    int // slots per request: 1 or o.MVEE

	mu       sync.Mutex
	slots    []*slot
	served   int
	simClock float64

	// Attacker state: the leaked write list, the slot it is pinned to and
	// the generation it was leaked from.
	atkWrites []write
	atkSlot   int
	atkGen    int

	nextSeed uint64
	golden   []uint64
	goldenS  float64
	// rep is the report Serve returns, counted into as the run goes. Live
	// reads its Quarantines and Recoveries, so they change under mu.
	rep *Report

	// Per-request metric series, set up once in New.
	cRequests, cAttacks, cStalls, cSilent, cWins counter
	cAccepted, cRejected                         counter
	cDetections                                  map[string]*counter

	// Serve-loop scratch, reused by every request: the serving candidates
	// dispatch sorts, and serveRequest's forks.
	serving []*slot
	procs   []*rt.Process
}

// New validates the options and prepares a fleet (no builds yet — Serve
// performs the initial fan-out so the ops endpoint can watch it).
func New(o Options) (*Fleet, error) {
	if o.Module == nil || o.Prof == nil || o.Eng == nil {
		return nil, errors.New("fleet: Module, Prof and Eng are required")
	}
	if o.Variants < 2 {
		return nil, fmt.Errorf("fleet: need at least two variants, got %d", o.Variants)
	}
	if o.MVEE == 1 || o.MVEE < 0 {
		return nil, fmt.Errorf("fleet: MVEE width must be 0 (single-variant) or >= 2, got %d", o.MVEE)
	}
	if o.MVEE > o.Variants {
		return nil, fmt.Errorf("fleet: MVEE width %d exceeds fleet size %d", o.MVEE, o.Variants)
	}
	if o.Requests <= 0 {
		return nil, fmt.Errorf("fleet: need a positive request count, got %d", o.Requests)
	}
	switch o.Heal {
	case "":
		o.Heal = HealRebuild
	case HealRebuild:
	case HealReroll:
		if o.Cfg.BTRAPoolSize <= 0 {
			return nil, fmt.Errorf("fleet: heal %q needs a booby-trap pool (config %s has none)", HealReroll, o.Cfg.Name)
		}
	default:
		return nil, fmt.Errorf("fleet: unknown heal strategy %q", o.Heal)
	}
	switch o.Attack.Mode {
	case "", ModeOverwrite, ModeHijack:
	default:
		return nil, fmt.Errorf("fleet: unknown attack mode %q", o.Attack.Mode)
	}
	if o.Attack.Mode == ModeOverwrite && o.Attack.Every > 0 && o.Attack.Target == "" {
		return nil, errors.New("fleet: overwrite attack needs a target symbol")
	}
	if o.RequestFuel == 0 {
		o.RequestFuel = 5_000_000
	}
	f := &Fleet{
		o:        o,
		campaign: "fleet/" + o.Module.Name,
		width:    1,
		atkSlot:  -1,
		atkGen:   -1,
		nextSeed: o.BaseSeed + uint64(o.Variants),
		rep:      &Report{},
	}
	f.rep.Sim.Workload = o.Module.Name
	f.rep.Sim.Config = o.Cfg.Name
	f.rep.Sim.Variants = o.Variants
	f.rep.Sim.MVEEWidth = o.MVEE
	f.rep.Sim.Requests = o.Requests
	f.rep.Sim.Detections = map[string]int{}
	if o.MVEE >= 2 {
		f.width = o.MVEE
	}
	c := func(name string, labels ...string) counter { return counter{obs: o.Obs, name: name, labels: labels} }
	f.cRequests, f.cAttacks, f.cStalls = c("fleet.requests"), c("fleet.attacks"), c("fleet.stalls")
	f.cSilent, f.cWins = c("fleet.silent_corruptions"), c("fleet.attacker_wins")
	f.cAccepted, f.cRejected = c("fleet.injections", "result", "accepted"), c("fleet.injections", "result", "rejected")
	f.cDetections = make(map[string]*counter, len(detectionKinds))
	for _, k := range detectionKinds {
		d := c("fleet.detections", "kind", k)
		f.cDetections[k] = &d
	}
	return f, nil
}

// Health returns "" while every variant is serving, and a degradation
// reason while any is quarantined (heal in flight) or failed — the /healthz
// signal a load balancer would use to drain a degraded fleet. Safe to call
// concurrently with Serve.
func (f *Fleet) Health() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	quar, failed := 0, 0
	for _, s := range f.slots {
		switch s.state {
		case stateQuarantined:
			quar++
		case stateFailed:
			failed++
		}
	}
	switch {
	case failed > 0:
		return fmt.Sprintf("%d variant(s) failed permanently", failed)
	case quar > 0:
		return fmt.Sprintf("%d variant(s) quarantined, heal in flight", quar)
	}
	return ""
}

// buildInitial links the fleet's starting images through the engine's
// content-addressed cache.
func (f *Fleet) buildInitial(ctx context.Context) error {
	o := f.o
	seeds := make([]uint64, o.Variants)
	for i := range seeds {
		seeds[i] = o.BaseSeed + uint64(i)
	}
	imgs, err := o.Eng.BuildImages(ctx, o.Module, o.Cfg, seeds)
	if err != nil {
		return fmt.Errorf("fleet: initial build: %w", err)
	}
	slots := make([]*slot, o.Variants)
	for i, img := range imgs {
		seed := o.BaseSeed + uint64(i)
		snap, err := sim.LoadImage(img, seed, o.Obs)
		if err != nil {
			return fmt.Errorf("fleet: variant %d: load: %w", i, err)
		}
		slots[i] = &slot{id: i, seed: seed, img: img, snap: snap, state: stateServing}
	}
	f.mu.Lock()
	f.slots = slots
	f.mu.Unlock()
	return nil
}

// Serve runs the whole request schedule and returns the report. The serve
// loop is a single goroutine over the simulated clock; replacement builds
// run concurrently on their own goroutines and are joined at rejoin time.
func (f *Fleet) Serve(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := f.o
	wallStart := time.Now()
	if err := f.buildInitial(ctx); err != nil {
		return nil, err
	}

	// Golden run: the differential property says every benign variant
	// agrees on output, so one clean run of variant 0 yields both the
	// ground-truth response and the reference service time. It is the
	// fleet's reference, not a request, so the default budget bounds it:
	// a RequestFuel below a clean request's length quarantines requests
	// instead of failing the run.
	gres, err := sim.ExecMachine(ctx, vm.New(f.slots[0].snap.Fork(o.Obs), o.Prof), o.Obs, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("fleet: golden run: %w", err)
	}
	f.golden = append([]uint64(nil), gres.Output...)
	f.goldenS = gres.Seconds(o.Prof)

	if o.Attack.active(o.Attack.Start) { // attack configured: resolve once to fail fast
		if _, err := resolveWrites(o.Attack, f.slots[0].img); err != nil {
			return nil, err
		}
	}

	rate := o.RateRPS
	if rate <= 0 {
		// Auto-calibrate the open-loop rate to ~70% of capacity: the fleet
		// serves Variants/width requests concurrently, each costing the
		// golden service time (MVEE lockstep occupies width slots per
		// request).
		rate = 0.7 * float64(o.Variants) / (float64(f.width) * f.goldenS)
	}
	rebuildLat := o.RebuildLatency
	if rebuildLat <= 0 {
		// Default quarantine window: ~20 request service times, long
		// enough that degraded capacity is visible in the tail latency.
		rebuildLat = 20 * f.goldenS
	}
	arrivals := rng.New(o.BaseSeed ^ 0xf1ee7a27c0ffee42)
	// With an observer the histograms live in its registry (exported via
	// /metrics and -metrics-out); without one the fleet still needs them
	// for the report's quantiles, so it owns private instances.
	hist := func(name string) *telemetry.Histogram {
		if h := o.Obs.Histogram(name, telemetry.LatencyBounds); h != nil {
			return h
		}
		return telemetry.NewHistogram(telemetry.LatencyBounds)
	}
	sojournH := hist("fleet.request.seconds")
	serviceH := hist("fleet.service.seconds")
	replaceH := hist("fleet.replace.wall.seconds")

	rep := f.rep
	rep.Sim.RateRPS = rate
	rep.Sim.RebuildLatency = rebuildLat
	rep.Sim.GoldenServiceSeconds = f.goldenS

	arrival := 0.0
	for i := 0; i < o.Requests; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Open-loop Poisson arrivals: the generator never waits for the
		// fleet, which is what makes overload visible as queueing delay.
		arrival += expInterarrival(arrivals, rate)

		if err := f.rejoinDue(arrival, rebuildLat, replaceH); err != nil {
			return nil, err
		}
		chosen, startFloor, stalled, err := f.dispatch(arrival, rebuildLat, replaceH)
		if err != nil {
			return nil, err
		}
		if stalled {
			rep.Sim.Stalls++
			f.cStalls.Inc()
		}
		start := startFloor
		for _, s := range chosen {
			if s.freeAt > start {
				start = s.freeAt
			}
		}

		if err := f.serveRequest(ctx, i, chosen, arrival, start, rebuildLat, sojournH, serviceH); err != nil {
			return nil, err
		}
	}

	// Join stragglers: replacement builds still in flight at shutdown are
	// waited for (their goroutines hold the engine), but slots past the end
	// of the schedule keep their final state in the report.
	f.mu.Lock()
	for _, s := range f.slots {
		if s.state == stateQuarantined {
			<-s.heal
		}
	}
	slots := make([]SlotReport, len(f.slots))
	for i, s := range f.slots {
		slots[i] = SlotReport{ID: s.id, Seed: s.seed, Gen: s.gen, State: s.state, Served: s.served, Quarantines: s.quars}
	}
	rep.Sim.Slots = slots
	rep.Sim.MakespanSeconds = f.simClock
	f.mu.Unlock()

	if rep.Sim.MakespanSeconds > 0 {
		rep.Sim.ThroughputRPS = float64(o.Requests) / rep.Sim.MakespanSeconds
	}
	snap := sojournH.Snapshot()
	rep.Sim.LatencyP50 = snap.Quantile(0.50)
	rep.Sim.LatencyP90 = snap.Quantile(0.90)
	rep.Sim.LatencyP99 = snap.Quantile(0.99)
	if snap.Count > 0 {
		rep.Sim.LatencyMean = snap.Sum / float64(snap.Count)
	}
	rsnap := replaceH.Snapshot()
	rep.Wall.Rebuilds = int(rsnap.Count)
	if rsnap.Count > 0 {
		rep.Wall.ReplaceMeanSeconds = rsnap.Sum / float64(rsnap.Count)
		rep.Wall.ReplaceP99Seconds = rsnap.Quantile(0.99)
	}
	rep.Wall.ElapsedSeconds = time.Since(wallStart).Seconds()
	rep.Publish(o.Obs)
	return rep, nil
}

// expInterarrival draws one exponential interarrival gap.
func expInterarrival(r *rng.RNG, rate float64) float64 {
	u := r.Float64()
	// -ln(1-u) with u in [0,1): never Inf because 1-u > 0.
	return -math.Log1p(-u) / rate
}

// dispatch picks the request's serving slots: the width earliest-available
// serving variants (ties by id). When fewer than width variants are
// serving, the earliest quarantined rejoins are pulled forward and the
// request stalls until they land.
func (f *Fleet) dispatch(arrival, rebuildLat float64, replaceH *telemetry.Histogram) ([]*slot, float64, bool, error) {
	serving := f.servingSlots()
	stalled := false
	floor := arrival
	for len(serving) < f.width {
		var quar []*slot
		for _, s := range f.slots {
			if s.state == stateQuarantined {
				quar = append(quar, s)
			}
		}
		if len(quar) == 0 {
			return nil, 0, false, fmt.Errorf("fleet: exhausted — %d/%d variants failed permanently", len(f.slots)-len(serving), len(f.slots))
		}
		slices.SortFunc(quar, func(a, b *slot) int {
			return cmp.Or(cmp.Compare(a.rejoinAt, b.rejoinAt), cmp.Compare(a.id, b.id))
		})
		need := f.width - len(serving)
		if need > len(quar) {
			need = len(quar)
		}
		t := quar[need-1].rejoinAt
		if t > floor {
			floor = t
		}
		stalled = true
		if err := f.rejoinDue(floor, rebuildLat, replaceH); err != nil {
			return nil, 0, false, err
		}
		serving = f.servingSlots()
	}
	slices.SortFunc(serving, func(a, b *slot) int {
		return cmp.Or(cmp.Compare(a.freeAt, b.freeAt), cmp.Compare(a.id, b.id))
	})
	chosen := serving[:f.width]
	// A pinned attacker directs its malicious requests at the variant it
	// leaked (connection pinning); swap it into the group when serving.
	if f.atkSlot >= 0 && f.o.Attack.active(f.served) {
		if v := f.slots[f.atkSlot]; v.state == stateServing {
			inGroup := false
			for _, s := range chosen {
				if s.id == v.id {
					inGroup = true
					break
				}
			}
			if !inGroup {
				copy(chosen[1:], chosen[:f.width-1])
				chosen[0] = v
			}
		}
	}
	return chosen, floor, stalled, nil
}

// servingSlots lists the serving slots in f.serving, which it reuses; the
// result is valid until the next call.
func (f *Fleet) servingSlots() []*slot {
	f.serving = f.serving[:0]
	for _, s := range f.slots {
		if s.state == stateServing {
			f.serving = append(f.serving, s)
		}
	}
	return f.serving
}

// serveRequest executes request i on the chosen slots, applies scheduled
// corruption, classifies detection signals, and quarantines compromised
// variants.
func (f *Fleet) serveRequest(ctx context.Context, i int, chosen []*slot, arrival, start, rebuildLat float64, sojournH, serviceH *telemetry.Histogram) error {
	o := f.o
	attacked := o.Attack.active(i)
	procs := f.procs[:0]
	for _, s := range chosen {
		procs = append(procs, s.snap.Fork(o.Obs))
	}
	f.procs = procs
	// Every reference to the forks dies with this request: hand their
	// memory to the next request's forks.
	defer func() {
		for _, p := range procs {
			p.Release()
		}
	}()

	var writes []write
	if attacked {
		var err error
		writes, err = f.attackerWrites(chosen[0])
		if err != nil {
			return err
		}
		f.rep.Sim.AttackRequests++
		f.cAttacks.Inc()
	}

	var (
		service  float64
		detected []int // indices into chosen to quarantine
		kinds    []string
		output   []uint64
	)
	if f.width >= 2 {
		me := &mvee.Engine{Incidents: o.Eng.Incidents, Campaign: f.campaign, Trial: i}
		for j, s := range chosen {
			me.Variants = append(me.Variants, &mvee.Variant{Seed: s.seed, Proc: procs[j], Mach: s.machine(procs[j], o.Prof)})
		}
		for _, w := range writes {
			// CorruptAll replicates the malicious input's absolute write to
			// every supervised variant and records where it landed — the
			// injector's ground truth.
			for _, landed := range me.CorruptAll(w.addr, w.value) {
				f.recordInjection(landed)
			}
		}
		verdict, err := me.Run(mveeSlice, f.maxSlices())
		if err != nil {
			return fmt.Errorf("fleet: request %d: supervisor: %w", i, err)
		}
		service, detected, kinds, output = f.judgeVerdict(verdict)
	} else {
		for _, w := range writes {
			f.recordInjection(procs[0].Space.Write64(w.addr, w.value) == nil)
		}
		var kind string
		service, kind, output = f.runSingle(ctx, i, chosen[0], procs[0])
		if kind != "" {
			detected = []int{0}
			kinds = []string{kind}
		}
	}

	done := start + service
	sojournH.Observe(done - arrival)
	serviceH.Observe(service)

	// Ground truth the defender cannot see: a run that finished clean with
	// the wrong output is a silent corruption (and, in hijack mode, the
	// attacker's win sentinel is an outright compromise).
	if len(detected) == 0 && output != nil {
		if !slices.Equal(output, f.golden) {
			f.rep.Sim.SilentCorruptions++
			f.cSilent.Inc()
		}
		if o.Attack.Mode == ModeHijack && attack.HasWin(output) {
			f.rep.Sim.AttackerWins++
			f.cWins.Inc()
		}
	}

	f.mu.Lock()
	f.served++
	if done > f.simClock {
		f.simClock = done
	}
	for _, s := range chosen {
		s.freeAt = done
		s.served++
	}
	f.mu.Unlock()
	f.cRequests.Inc()

	for k, j := range detected {
		f.rep.Sim.Detections[kinds[k]]++
		f.cDetections[kinds[k]].Inc()
		f.quarantine(chosen[j], done, rebuildLat)
	}
	return nil
}

// maxSlices is a supervised request's slice budget: RequestFuel rounded up
// to whole slices.
func (f *Fleet) maxSlices() int {
	return int((f.o.RequestFuel + mveeSlice - 1) / mveeSlice)
}

// judgeVerdict turns a supervisor verdict into the request's service time,
// the group members to quarantine, and the detection kinds per member.
func (f *Fleet) judgeVerdict(v *mvee.Verdict) (service float64, detected []int, kinds []string, output []uint64) {
	for _, r := range v.Results {
		if r == nil {
			continue
		}
		if s := r.Seconds(f.o.Prof); s > service {
			service = s
		}
	}
	if len(v.Hung) > 0 {
		// A hung variant burned its whole slice budget; lockstep pins the
		// group's service time to that (modeled at ~1 instruction/cycle).
		if s := float64(mveeSlice*f.maxSlices()) / (f.o.Prof.GHz * 1e9); s > service {
			service = s
		}
	}
	if !v.Detected() {
		if r := v.Results[0]; r != nil {
			output = r.Output
		}
		return service, nil, nil, output
	}
	// Attribution: members that trapped, hung or errored are individually
	// compromised; a pure output divergence cannot be attributed within
	// the group, so the whole group re-diversifies (the conservative MVEE
	// response — restart everything the corrupted input touched).
	for j, r := range v.Results {
		switch {
		case r != nil && r.Trap != nil:
			detected = append(detected, j)
			kinds = append(kinds, "trap")
		case r != nil && r.Fault != nil:
			detected = append(detected, j)
			kinds = append(kinds, "fault")
		case r == nil || v.Errs[j] != "":
			detected = append(detected, j)
			kinds = append(kinds, "divergence")
		}
	}
	if len(detected) == 0 {
		for j := range v.Results {
			detected = append(detected, j)
			kinds = append(kinds, "divergence")
		}
	}
	return service, detected, kinds, nil
}

// runSingle executes one unsupervised request and classifies its detection
// signal ("" = clean). A fuel exhaustion is a liveness signal — the same
// reasoning as the supervisor's slice budget — and quarantines the variant.
func (f *Fleet) runSingle(ctx context.Context, i int, s *slot, p *rt.Process) (service float64, kind string, output []uint64) {
	o, l := f.o, f.o.Eng.Incidents
	res, err := sim.ExecMachine(ctx, s.machine(p, o.Prof), o.Obs, nil, o.RequestFuel)
	if res != nil {
		service = res.Seconds(o.Prof)
		output = res.Output
	}
	switch {
	case res != nil && res.Trap != nil:
		kind = "trap"
		if l != nil {
			l.Add(incident.FromTrap(f.campaign, o.Cfg.Name, s.seed, i, "fleet", p, *res.Trap, res.Instructions))
		}
	case res != nil && res.Fault != nil:
		kind = "fault"
		if l != nil {
			l.Add(incident.FromFault(f.campaign, o.Cfg.Name, s.seed, i, "fleet", p, res.Fault.Addr, res.Instructions))
		}
	case errors.Is(err, vm.ErrFuelExhausted):
		kind = "hang"
		output = nil // an unfinished run has no comparable response
		if l != nil {
			rec := incident.Record{
				Campaign: f.campaign, Config: o.Cfg.Name, Seed: s.seed, Trial: i,
				Kind: "hang", Via: "fleet",
				Origin: fmt.Sprintf("request exceeded the %d-instruction fuel allowance", o.RequestFuel),
				Instr:  res.Instructions,
			}
			rec.Seal()
			l.Add(rec)
		}
	case err != nil:
		kind = "error"
		output = nil
		if l != nil {
			rec := incident.Record{
				Campaign: f.campaign, Config: o.Cfg.Name, Seed: s.seed, Trial: i,
				Kind: "error", Via: "fleet", Origin: err.Error(),
			}
			if res != nil {
				rec.Instr = res.Instructions
			}
			rec.Seal()
			l.Add(rec)
		}
	}
	return service, kind, output
}

func (f *Fleet) recordInjection(landed bool) {
	if landed {
		f.rep.Sim.InjectionsAccepted++
		f.cAccepted.Inc()
	} else {
		f.rep.Sim.InjectionsRejected++
		f.cRejected.Inc()
	}
}

// quarantine pulls a variant out of rotation at simulated time t and starts
// its replacement build on a separate goroutine — the serve loop never
// blocks on the compiler or the loader; it joins the build and the
// replacement's snapshot when the rejoin time arrives.
func (f *Fleet) quarantine(s *slot, t, rebuildLat float64) {
	if s.state != stateServing {
		return // already quarantined by an earlier signal in the same request
	}
	o := f.o
	f.mu.Lock()
	s.state = stateQuarantined
	s.rejoinAt = t + rebuildLat
	s.quars++
	f.rep.Sim.Quarantines++
	f.mu.Unlock()
	s.wallQuar = time.Now()
	s.heal = make(chan healDone, 1)
	o.Obs.Counter("fleet.quarantines").Inc()
	o.Obs.Gauge("fleet.slots.quarantined").Add(1)
	o.Obs.Emit("fleet-quarantine", map[string]any{"slot": s.id, "gen": s.gen, "sim_time": t})

	seed := f.nextSeed
	f.nextSeed++
	old, oldSeed := s.img, s.seed
	go func(ch chan healDone) {
		// A reroll draws the copy's BTRAs from the fresh seed and keeps the
		// slot's load seed; a rebuild re-diversifies under the fresh seed.
		// Either way the replacement's snapshot loads beside the build, so
		// the rejoining variant serves forks at once.
		var hd healDone
		if o.Heal == HealReroll {
			hd.img, hd.err = old.Reroll(seed)
			hd.seed = oldSeed
		} else {
			hd.img, _, hd.err = o.Eng.Cache.Image(o.Module, o.Cfg, seed, nil, nil)
			hd.seed = seed
		}
		if hd.err == nil {
			hd.snap, hd.err = sim.LoadImage(hd.img, hd.seed, o.Obs)
		}
		ch <- hd
	}(s.heal)
}

// rejoinDue completes every quarantined variant whose rejoin time has
// arrived: join the replacement build (waiting out any wall-clock remainder
// — simulated time is unaffected) and put the fresh variant back in
// rotation.
func (f *Fleet) rejoinDue(t, rebuildLat float64, replaceH *telemetry.Histogram) error {
	for _, s := range f.slots {
		if s.state != stateQuarantined || s.rejoinAt > t {
			continue
		}
		hd := <-s.heal
		wall := time.Since(s.wallQuar).Seconds()
		// The slot leaves quarantine whether its heal rejoins or fails.
		f.o.Obs.Gauge("fleet.slots.quarantined").Add(-1)
		f.mu.Lock()
		if hd.err != nil {
			s.state = stateFailed
			f.rep.Sim.HealFailures++
			f.mu.Unlock()
			f.o.Obs.Counter("fleet.heal.failures").Inc()
			f.o.Obs.Emit("fleet-heal-failed", map[string]any{"slot": s.id, "error": hd.err.Error()})
			continue
		}
		s.img, s.snap, s.seed = hd.img, hd.snap, hd.seed
		s.gen++
		s.state = stateServing
		s.freeAt = s.rejoinAt
		f.rep.Sim.Recoveries++
		f.mu.Unlock()
		replaceH.Observe(wall)
		f.o.Obs.Counter("fleet.recoveries").Inc()
		f.o.Obs.Emit("fleet-rejoin", map[string]any{"slot": s.id, "gen": s.gen, "wall_seconds": wall})
	}
	return nil
}

// attackerWrites returns the corrupting writes for the current request,
// leaking (or re-leaking, when adaptive) the target's layout as needed.
func (f *Fleet) attackerWrites(target *slot) ([]write, error) {
	if f.atkSlot < 0 {
		f.atkSlot = target.id
	}
	victim := f.slots[f.atkSlot]
	if f.atkWrites == nil || (f.o.Attack.Adaptive && victim.state == stateServing && f.atkGen != victim.gen) {
		ws, err := resolveWrites(f.o.Attack, victim.img)
		if err != nil {
			return nil, err
		}
		f.atkWrites = ws
		f.atkGen = victim.gen
		f.rep.Sim.Leaks++
		f.o.Obs.Counter("fleet.leaks").Inc()
	}
	return f.atkWrites, nil
}

// resolveWrites computes the injection payload from the leaked image — the
// absolute addresses an AOCR-style attacker would extract from a layout
// disclosure of that one variant.
func resolveWrites(s Schedule, img *image.Image) ([]write, error) {
	switch s.Mode {
	case ModeHijack:
		admin := img.DataSyms[attack.SymAdminPtr]
		key := img.DataSyms[attack.SymSecretKey]
		secret := img.Funcs[attack.SymSecretFunc]
		if admin == nil || key == nil || secret == nil {
			return nil, fmt.Errorf("fleet: hijack attack needs the victim workload's %s/%s/%s symbols", attack.SymAdminPtr, attack.SymSecretKey, attack.SymSecretFunc)
		}
		return []write{{key.Addr, attack.MagicArg}, {admin.Addr, secret.Start}}, nil
	default:
		ds := img.DataSyms[s.Target]
		if ds == nil {
			return nil, fmt.Errorf("fleet: overwrite target %q is not a data symbol of this workload", s.Target)
		}
		return []write{{ds.Addr, s.Value}}, nil
	}
}

// SlotView is one variant's row in the live view.
type SlotView struct {
	ID     int    `json:"id"`
	State  string `json:"state"`
	Gen    int    `json:"gen"`
	Seed   uint64 `json:"seed"`
	Served int    `json:"served"`
}

// LiveView is the fleet's /progress payload: a point-in-time snapshot the
// ops endpoint can poll from another goroutine while Serve runs.
type LiveView struct {
	Requests    int        `json:"requests"`
	Served      int        `json:"served"`
	SimClock    float64    `json:"sim_clock_seconds"`
	Quarantines int        `json:"quarantines"`
	Recoveries  int        `json:"recoveries"`
	Slots       []SlotView `json:"slots"`
}

// Live snapshots the fleet mid-run. Safe to call concurrently with Serve.
func (f *Fleet) Live() LiveView {
	f.mu.Lock()
	defer f.mu.Unlock()
	lv := LiveView{
		Requests:    f.o.Requests,
		Served:      f.served,
		SimClock:    f.simClock,
		Quarantines: f.rep.Sim.Quarantines,
		Recoveries:  f.rep.Sim.Recoveries,
	}
	for _, s := range f.slots {
		lv.Slots = append(lv.Slots, SlotView{ID: s.id, State: s.state, Gen: s.gen, Seed: s.seed, Served: s.served})
	}
	return lv
}
