package attack

import (
	"fmt"
	"sort"
	"sync"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/image"
	"r2c/internal/incident"
	"r2c/internal/isa"
	"r2c/internal/rng"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/stats"
	"r2c/internal/telemetry"
	"r2c/internal/vm"
)

// clusterGap is the value-proximity threshold of the statistical analysis:
// two pointers within this distance belong to the same memory region
// cluster. minPointer filters non-pointer words.
const (
	clusterGap = 4 << 20 // 4 MiB — mappings are ≥16 MiB apart
	minPointer = 1 << 32
)

// Scenario is one attack setting: a victim process paused mid-request, plus
// the attacker's own reference build of the same source (the monoculture
// copy). When the defense diversifies, the reference copy has a different
// seed; an undiversified baseline gives the attacker a layout-identical
// copy (modulo ASLR), which is exactly the monoculture assumption
// randomization-based defenses break.
type Scenario struct {
	Cfg    defense.Config
	Proc   *rt.Process
	Mach   *vm.Machine
	RefImg *image.Image // attacker's copy
	Rnd    *rng.RNG

	// Obs receives per-scenario telemetry: probe/leak counters, detection
	// events and outcome tallies. Nil disables collection.
	Obs *telemetry.Observer

	// Detections counts booby traps fired by attacker probes before the
	// victim even resumes (deref of a BTDP, etc.).
	Detections int
	// Forensics records, for every detection, which trap class caught the
	// probe and which planted artifact it touched — the evidence trail the
	// -forensics flag renders. Collection reads only immutable link/load
	// metadata, so it never perturbs the campaign.
	Forensics []ForensicHit
	// Campaign and Trial label this scenario's incident records: Campaign
	// names the experiment ("" defaults to "attack/<config>"), Trial the
	// Monte-Carlo trial index. Bench drivers set them right after
	// construction; records fold deterministically either way because both
	// are content, not timing.
	Campaign string
	Trial    int

	// staleness implements re-randomizing defenses (TASR, CodeArmor):
	// each primitive use advances time; leaked addresses expire after
	// cfg.ReRandomizePeriod steps.
	now int
	// baseSeed is the victim build seed (restart scenarios reuse it when
	// the server restarts without re-randomizing, Section 4).
	baseSeed uint64
	// eng is the run context restarts build through and detections are
	// recorded in; never nil (see newScenario).
	eng *exec.Engine
}

// NewScenario builds and pauses a victim under cfg, MTB-style: the victim
// thread blocks inside the request handler (helper). victimSeed diversifies
// the victim build; the attacker's reference copy uses an unrelated seed,
// which only matters when the configuration actually randomizes layout.
//
// eng is the run context: the victim and reference build through eng.Cache
// (Monte-Carlo campaigns rebuild the same victim under the same config and
// seed many times, and those builds are bit-identical), every detection is
// recorded in eng.Incidents with the victim's flight-recorder snapshot, and
// the victim process and the scenario's "attack.*" counters report to
// eng.Obs. A nil eng stands for exec.New(1, nil): a cache of its own, no
// observer and no incident log.
func NewScenario(eng *exec.Engine, cfg defense.Config, victimSeed uint64) (*Scenario, error) {
	return newScenario(eng, cfg, victimSeed, true, pause{})
}

// unobserved builds a victim for campaign restarts and ablations:
// cached and incident-recorded like NewScenario, but neither the process nor
// the scenario reports to eng.Obs.
func unobserved(eng *exec.Engine, cfg defense.Config, seed uint64) (*Scenario, error) {
	return newScenario(eng, cfg, seed, false, pause{})
}

// campaign returns the scenario's incident-campaign label.
func (s *Scenario) campaign() string {
	if s.Campaign != "" {
		return s.Campaign
	}
	return "attack/" + s.Cfg.Name
}

// noteIncident folds one detection into the engine's incident log.
func (s *Scenario) noteIncident(via string, ev rt.TrapEvent, instr uint64) {
	if l := s.eng.Incidents; l != nil {
		l.Add(incident.FromTrap(s.campaign(), s.Cfg.Name, s.baseSeed, s.Trial, via, s.Proc, ev, instr))
	}
}

// victimModule is the one victim module every scenario builds from. It is
// immutable, so sharing it lets the build cache hash its content once.
var victimModule = sync.OnceValue(Victim)

// ForensicHit is one detected probe with its resolved defense provenance.
type ForensicHit struct {
	// Via names the detection point: "btdp-read" (a disclosure probe
	// dereferenced a guard page before the victim resumed) or "resume"
	// (the resumed victim consumed a corrupted value and detonated).
	Via  string
	Prov rt.Provenance
}

func (h ForensicHit) String() string { return fmt.Sprintf("%-9s %s", h.Via, h.Prov.String()) }

// noteForensic resolves and records the provenance of one detection.
func (s *Scenario) noteForensic(via string, ev rt.TrapEvent) {
	s.Forensics = append(s.Forensics, ForensicHit{Via: via, Prov: s.Proc.TrapProvenance(ev)})
}

// Leaked is a value the attacker read, with the time it was read (for
// staleness under re-randomizing defenses).
type Leaked struct {
	Addr, Value uint64
	at          int
}

// tick advances attack time (each primitive counts as one step; under
// TASR-style defenses every step may cross an I/O syscall boundary and
// trigger re-randomization).
func (s *Scenario) tick() { s.now++ }

// Stale reports whether a leaked value has been invalidated by
// re-randomization since it was read.
func (s *Scenario) Stale(l Leaked) bool {
	return s.Cfg.ReRandomizePeriod > 0 && s.now-l.at >= s.Cfg.ReRandomizePeriod
}

// Read is the attacker's disclosure primitive: a permission-checked read.
// Dereferencing a BTDP guard page faults and is *detected* (Section 4.2).
func (s *Scenario) Read(addr uint64) (Leaked, error) {
	s.tick()
	s.Obs.Counter("attack.probes", "op", "read").Inc()
	// Attacker-surface probes go on the victim's flight record too, so an
	// incident snapshot shows the reconnaissance sequence that led to the
	// detonation. Attack time stands in for the instruction clock: the
	// victim is paused while the attacker probes.
	s.Proc.Flight.Record(telemetry.FlightProbe, 0, addr, uint64(s.now))
	v, err := s.Proc.Space.Read64(addr)
	if err != nil {
		if s.Proc.IsGuardAddr(addr) {
			s.Detections++
			ev := rt.TrapEvent{Kind: rt.TrapBTDP, Addr: addr}
			s.noteForensic("btdp-read", ev)
			s.noteIncident("probe", ev, 0)
			s.Obs.Counter("attack.detections", "via", "btdp-read").Inc()
			s.Obs.Emit("attack.detect", map[string]any{"via": "btdp-read", "addr": addr})
			return Leaked{}, fmt.Errorf("attack: read %#x detonated a BTDP: %w", addr, err)
		}
		return Leaked{}, err
	}
	return Leaked{Addr: addr, Value: v, at: s.now}, nil
}

// Write is the attacker's corruption primitive.
func (s *Scenario) Write(addr, v uint64) error {
	s.tick()
	s.Obs.Counter("attack.probes", "op", "write").Inc()
	s.Proc.Flight.Record(telemetry.FlightProbe, 0, addr, uint64(s.now))
	return s.Proc.Space.Write64(addr, v)
}

// RSP returns the paused victim's stack pointer — MTB gives the attacker a
// thread whose stack location it knows (Section 2.3).
func (s *Scenario) RSP() uint64 { return s.Mach.CPU.R[isa.RSP] }

// LeakStack reads n bytes of the paused stack upward from RSP — "a
// statistical analysis of two pages of stack values suffices" (Section
// 4.2). Stack pages are readable, so this never faults.
func (s *Scenario) LeakStack(nBytes uint64) ([]Leaked, error) {
	s.tick()
	base := s.RSP()
	var out []Leaked
	for off := uint64(0); off < nBytes; off += 8 {
		addr := base + off
		if addr+8 > s.Proc.Img.StackHi {
			break
		}
		v, err := s.Proc.Space.Read64(addr)
		if err != nil {
			return out, err
		}
		out = append(out, Leaked{Addr: addr, Value: v, at: s.now})
	}
	s.Obs.Counter("attack.probes", "op", "stack-leak").Inc()
	s.Obs.Counter("attack.leaked_words").Add(uint64(len(out)))
	return out, nil
}

// Resume lets the victim run to completion and classifies what happened.
func (s *Scenario) Resume() Outcome { return s.resume(true) }

// ResumeOutcomeOnly is Resume without counting earlier probe detections
// (for experiments that score only the final control-flow transfer).
func (s *Scenario) ResumeOutcomeOnly() Outcome { return s.resume(false) }

func (s *Scenario) resume(countProbes bool) Outcome {
	res, err := s.Mach.Run(sim.DefaultBudget)
	if res.Trap != nil {
		s.noteForensic("resume", *res.Trap)
		s.noteIncident("resume", *res.Trap, res.Instructions)
	}
	var o Outcome
	switch {
	case res.Trap != nil || countProbes && s.Detections > 0:
		o = Detected
	case err != nil || res.Fault != nil || !res.Halted:
		o = Crashed
	case HasWin(res.Output):
		o = Success
	default:
		o = Failed
	}
	s.noteOutcome(o)
	return o
}

// noteOutcome records the scenario's final classification and flushes the
// victim machine's counters into the observer's registry.
func (s *Scenario) noteOutcome(o Outcome) {
	if !s.Obs.Enabled() {
		return
	}
	s.Obs.Counter("attack.outcomes", "config", s.Cfg.Name, "result", o.String()).Inc()
	s.Obs.Emit("attack.outcome", map[string]any{
		"config": s.Cfg.Name, "result": o.String(), "detections": s.Detections,
	})
	s.Mach.PublishMetrics(s.Obs.Reg())
}

// Clusters runs the AOCR statistical analysis over leaked words and
// classifies the populous clusters into regions. The attacker reasons
// relatively (it knows its own read addresses, so the cluster containing
// them is the stack; the remaining clusters order as text/data < heap <
// stack in the conventional x86_64 layout it also sees in its own copy).
type Clusters struct {
	All   []*stats.Cluster
	Text  *stats.Cluster // code addresses (text region)
	Data  *stats.Cluster // static data region
	Heap  *stats.Cluster
	Stack *stats.Cluster
}

// Classify clusters the leaked values by proximity and assigns regions the
// way the AOCR analysis does: the attacker knows where its own probe reads
// landed (the stack), and knows the conventional region ordering
// text < data < heap < stack from its reference copy.
func (s *Scenario) Classify(leaks []Leaked) *Clusters {
	vals := make([]uint64, 0, len(leaks))
	for _, l := range leaks {
		vals = append(vals, l.Value)
	}
	// Filter non-canonical values first: x86_64 user pointers have the
	// top 17 bits clear, so anything above 2^47 cannot be a pointer.
	canon := vals[:0]
	for _, v := range vals {
		if v < 1<<47 {
			canon = append(canon, v)
		}
	}
	cs := stats.ClusterValues(canon, clusterGap, minPointer)
	out := &Clusters{All: cs}
	if len(cs) == 0 {
		return out
	}
	stackProbe := s.RSP()
	var below []*stats.Cluster
	for _, c := range cs {
		if c.Lo <= stackProbe+(1<<21) && c.Hi >= stackProbe-(1<<21) {
			out.Stack = c
			continue
		}
		below = append(below, c)
	}
	sort.Slice(below, func(i, j int) bool { return below[i].Lo < below[j].Lo })
	switch len(below) {
	case 0:
	case 1:
		out.Text = below[0]
	case 2:
		// Either text+heap (stack leak: no data pointers on the stack) or
		// data+heap: the attacker disambiguates by the magnitude of the
		// gap to the probe values it already attributed to text.
		out.Text = below[0]
		out.Heap = below[1]
	default:
		out.Text = below[0]
		out.Data = below[1]
		out.Heap = below[len(below)-1]
	}
	return out
}
