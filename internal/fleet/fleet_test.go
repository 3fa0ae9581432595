package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/image"
	"r2c/internal/incident"
	"r2c/internal/isa"
	"r2c/internal/mem"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// runFleet executes one fleet run and returns the report, the deterministic
// half as JSON and the incident timeline as JSON.
func runFleet(t *testing.T, o Options) (*Report, string, string) {
	t.Helper()
	ilog := incident.NewLog()
	o.Eng.Incidents = ilog
	fl, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fl.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := json.Marshal(rep.Sim)
	if err != nil {
		t.Fatal(err)
	}
	var inc bytes.Buffer
	if err := ilog.WriteJSON(&inc); err != nil {
		t.Fatal(err)
	}
	return rep, string(sim), inc.String()
}

func webOptions(jobs int) Options {
	return Options{
		Module:   workload.NginxRequest(),
		Cfg:      defense.R2CFull(),
		Prof:     vm.EPYCRome(),
		Variants: 4,
		BaseSeed: 1,
		Requests: 300,
		MVEE:     2,
		Attack: Schedule{
			Start: 40, Every: 20,
			Mode: ModeOverwrite, Target: "page64", Value: 0xbadc0ffee,
			Adaptive: true,
		},
		Eng: exec.New(jobs, nil),
	}
}

// TestSupervisedFleetDetectsAndHeals drives the whole closed loop under an
// adaptive attacker: every landed corruption must be detected (no silent
// corruptions), detection must quarantine, and every quarantined variant
// must re-enter rotation re-diversified.
func TestSupervisedFleetDetectsAndHeals(t *testing.T) {
	rep, _, inc := runFleet(t, webOptions(0))
	s := rep.Sim
	if s.AttackRequests == 0 || s.InjectionsAccepted == 0 {
		t.Fatalf("attack schedule never landed: %+v", s)
	}
	if s.Detections["divergence"] == 0 {
		t.Fatalf("no divergence detections under attack: %+v", s.Detections)
	}
	if s.SilentCorruptions != 0 || s.AttackerWins != 0 {
		t.Fatalf("supervised fleet let corruption through: %d silent, %d wins", s.SilentCorruptions, s.AttackerWins)
	}
	if s.Quarantines == 0 || s.Recoveries != s.Quarantines {
		t.Fatalf("heal loop did not close: %d quarantines, %d recoveries", s.Quarantines, s.Recoveries)
	}
	if rep.Wall.Rebuilds == 0 || rep.Wall.ReplaceMeanSeconds <= 0 {
		t.Fatalf("no wall time-to-replace measured: %+v", rep.Wall)
	}
	if s.ThroughputRPS <= 0 || s.LatencyP99 < s.LatencyP50 {
		t.Fatalf("serving numbers inconsistent: %+v", s)
	}
	served := 0
	for _, sl := range s.Slots {
		served += sl.Served
	}
	// MVEE×2 runs every request on two variants.
	if served != 2*s.Requests {
		t.Fatalf("slot serve counts sum to %d, want %d", served, 2*s.Requests)
	}
	if !bytes.Contains([]byte(inc), []byte(`"kind": "divergence"`)) {
		t.Fatal("incident timeline carries no divergence records")
	}
}

// TestFleetDeterministicAcrossJobs pins the width-determinism contract: the
// simulated-domain report and the incident timeline are byte-identical
// whether replacement builds run serially or on a wide pool.
func TestFleetDeterministicAcrossJobs(t *testing.T) {
	_, sim1, inc1 := runFleet(t, webOptions(1))
	_, sim8, inc8 := runFleet(t, webOptions(8))
	if sim1 != sim8 {
		t.Errorf("sim report differs between -jobs 1 and -jobs 8:\n%s\nvs\n%s", sim1, sim8)
	}
	if inc1 != inc8 {
		t.Error("incident timeline differs between -jobs 1 and -jobs 8")
	}
}

// TestSingleVariantAttackIsSilent is the control: without MVEE supervision
// the same data-only corruption produces wrong responses and no detection
// signal — the ground-truth gap the supervised fleet closes.
func TestSingleVariantAttackIsSilent(t *testing.T) {
	o := webOptions(0)
	o.MVEE = 0
	o.Requests = 120
	o.Attack.Adaptive = false
	rep, _, _ := runFleet(t, o)
	s := rep.Sim
	if len(s.Detections) != 0 || s.Quarantines != 0 {
		t.Fatalf("data-only corruption should be invisible to a single variant: %+v", s)
	}
	if s.SilentCorruptions == 0 {
		t.Fatalf("expected silent corruptions in the ground truth, got %+v", s)
	}
}

// boundedLoopModule runs bound loop iterations, read from a global, so an
// overwrite attack can hang the handler.
func boundedLoopModule(bound uint64) *tir.Module {
	mb := tir.NewModule("bounded")
	mb.AddGlobal("bound", 8, bound)
	main := mb.NewFunc("main", 0)
	bp := main.AddrGlobal("bound")
	n := main.Load(bp, 0)
	acc := main.Const(0)
	workload.LoopTo(main, 0, n, func(i tir.Reg) {
		main.BinTo(acc, tir.OpAdd, acc, i)
	})
	main.Output(acc)
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

// TestHangDetectionQuarantines pins the liveness path end to end: a
// corruption that sends the handler into an unbounded loop exhausts the
// request fuel, is classified as a hang, quarantines the variant, and the
// incident log records it.
func TestHangDetectionQuarantines(t *testing.T) {
	o := Options{
		Module:   boundedLoopModule(4),
		Cfg:      defense.R2CFull(),
		Prof:     vm.EPYCRome(),
		Variants: 3,
		BaseSeed: 9,
		Requests: 200,
		// Pin the arrival rate and quarantine window so the schedule extends
		// well past the hung request's fuel burn and its rejoin time — the
		// recovery must land inside the simulated run.
		RateRPS:        5e6,
		RebuildLatency: 2e-6,
		RequestFuel:    50_000,
		Attack: Schedule{
			Start: 10, Every: 20,
			Mode: ModeOverwrite, Target: "bound", Value: 1 << 40,
		},
		Eng: exec.New(0, nil),
	}
	rep, _, inc := runFleet(t, o)
	s := rep.Sim
	if s.Detections["hang"] == 0 {
		t.Fatalf("hung request not detected: %+v", s.Detections)
	}
	if s.Quarantines == 0 || s.Recoveries == 0 {
		t.Fatalf("hang did not quarantine and heal: %+v", s)
	}
	if !bytes.Contains([]byte(inc), []byte(`"kind": "hang"`)) {
		t.Fatal("incident timeline carries no hang records")
	}
}

// TestRequestFuelBoundsSupervisedRequests: RequestFuel bounds a request
// under MVEE supervision too. With the budget below a clean request's
// length, every supervised request exhausts its slices, and each member of
// every group is quarantined as a liveness divergence.
func TestRequestFuelBoundsSupervisedRequests(t *testing.T) {
	const requests = 12
	o := Options{
		Module:         boundedLoopModule(100_000),
		Cfg:            defense.R2CFull(),
		Prof:           vm.EPYCRome(),
		Variants:       4,
		BaseSeed:       3,
		Requests:       requests,
		MVEE:           2,
		RateRPS:        1e3,
		RebuildLatency: 1e-4,
		RequestFuel:    150_000, // two 100,000-instruction slices
		Eng:            exec.New(1, nil),
	}
	proc, err := sim.Build(o.Module, o.Cfg, o.BaseSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.ExecMachine(context.Background(), vm.New(proc, o.Prof), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions <= 200_000 {
		t.Fatalf("a clean request retires %d instructions; the test needs more than the 200,000-instruction budget", res.Instructions)
	}
	rep, _, inc := runFleet(t, o)
	s := rep.Sim
	if len(s.Detections) != 1 || s.Detections["divergence"] != 2*requests {
		t.Fatalf("detections = %v, want %d divergences and nothing else", s.Detections, 2*requests)
	}
	if s.Quarantines != 2*requests {
		t.Fatalf("quarantines = %d, want %d", s.Quarantines, 2*requests)
	}
	var tl incident.Timeline
	if err := json.Unmarshal([]byte(inc), &tl); err != nil {
		t.Fatalf("incidents JSON: %v", err)
	}
	hung := map[int]int{}
	for _, r := range tl.Incidents {
		if r.Kind != "divergence" || !strings.Contains(r.Origin, "exceeded the slice budget") {
			t.Fatalf("incident %s %q, want a slice-budget divergence", r.Kind, r.Origin)
		}
		hung[r.Trial]++
	}
	for i := 0; i < requests; i++ {
		if hung[i] != 2 {
			t.Errorf("request %d: %d slice-budget incidents, want 2", i, hung[i])
		}
	}
}

// TestHealthThroughQuarantine drives Health() through the full degradation
// cycle and pins the /healthz contract on a live ops server: 200 "ok" while
// all variants serve, 503 "degraded" while a quarantine's heal is in flight,
// and 200 again after the rejoin.
func TestHealthThroughQuarantine(t *testing.T) {
	o := webOptions(0)
	ilog := incident.NewLog()
	o.Eng.Incidents = ilog
	fl, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := telemetry.ServeOpsSources("127.0.0.1:0", telemetry.OpsSources{Health: fl.Health})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	get := func() (int, string) {
		t.Helper()
		resp, err := client.Get(srv.URL() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if err := fl.buildInitial(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := get(); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthy fleet /healthz = %d %q", code, body)
	}

	// Quarantine one slot the way a detection would; the heal build runs in
	// the background while /healthz reports degraded.
	fl.quarantine(fl.slots[2], 1.0, 0.5)
	if code, body := get(); code != 503 || !strings.Contains(body, "degraded: 1 variant(s) quarantined") {
		t.Fatalf("degraded fleet /healthz = %d %q", code, body)
	}

	// Rejoin at a time past the window; health recovers.
	replaceH := telemetry.NewHistogram(telemetry.LatencyBounds)
	if err := fl.rejoinDue(2.0, 0.5, replaceH); err != nil {
		t.Fatal(err)
	}
	if code, body := get(); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("recovered fleet /healthz = %d %q", code, body)
	}
}

// TestHealFailureLeavesSlotFailed drives the heal-failure path: the initial
// images come from the engine's cache, but the module's entry then names no
// function, so every replacement build fails verification. Each quarantined
// slot must end failed, counted in HealFailures and Health, and no longer in
// the quarantined-slots gauge.
func TestHealFailureLeavesSlotFailed(t *testing.T) {
	o := webOptions(1)
	o.Requests = 120
	reg := telemetry.NewRegistry()
	o.Obs = &telemetry.Observer{Registry: reg}
	seeds := make([]uint64, o.Variants)
	for i := range seeds {
		seeds[i] = o.BaseSeed + uint64(i)
	}
	if _, err := o.Eng.BuildImages(context.Background(), o.Module, o.Cfg, seeds); err != nil {
		t.Fatal(err)
	}
	o.Module.Entry = "no_such_entry"
	fl, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fl.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, s := range rep.Sim.Slots {
		if s.State == stateFailed {
			failed++
		} else if s.State != stateServing {
			t.Errorf("slot %d ended %s", s.ID, s.State)
		}
	}
	if failed == 0 || rep.Sim.HealFailures != failed || rep.Sim.Recoveries != 0 {
		t.Fatalf("%d failed slots, HealFailures %d, Recoveries %d: want every heal to fail", failed, rep.Sim.HealFailures, rep.Sim.Recoveries)
	}
	if h := fl.Health(); !strings.Contains(h, "failed permanently") {
		t.Fatalf("Health() = %q, want the failed variants named", h)
	}
	if g := reg.Gauge("fleet.slots.quarantined").Value(); g != 0 {
		t.Fatalf("fleet.slots.quarantined = %g with no slot quarantined", g)
	}
}

// TestFleetCacheHoldsServedImages pins the fleet's memory bound: every image
// a slot retires leaves the engine's build cache, so a run ends holding the
// images its serving slots run, not one more per heal.
func TestFleetCacheHoldsServedImages(t *testing.T) {
	// count returns how many slots end serving, and how many of those still
	// serve their initial build.
	count := func(rep *Report) (serving, original int) {
		for _, s := range rep.Sim.Slots {
			if s.State == stateServing {
				serving++
				if s.Gen == 0 {
					original++
				}
			}
		}
		return serving, original
	}

	t.Run("rebuild", func(t *testing.T) {
		o := webOptions(0)
		o.Requests = 600
		rep, _, _ := runFleet(t, o)
		if rep.Sim.Recoveries < 20 {
			t.Fatalf("%d rebuild heals, want at least 20", rep.Sim.Recoveries)
		}
		// A slot still quarantined at shutdown serves neither its retired
		// image nor its discarded heal, so it holds no entry.
		want, _ := count(rep)
		if n := o.Eng.Cache.Len(); n != want {
			t.Fatalf("cache holds %d images after %d heals, want the %d the serving slots run", n, rep.Sim.Recoveries, want)
		}
	})

	t.Run("reroll", func(t *testing.T) {
		o := webOptions(0)
		o.Requests, o.Attack.Start, o.Attack.Adaptive = 200, 20, false
		o.Heal = HealReroll
		rep, _, _ := runFleet(t, o)
		if rep.Sim.Recoveries == 0 {
			t.Fatal("no reroll heal ran")
		}
		// Reroll copies are never cached: only the slots still serving their
		// initial build hold an entry.
		_, original := count(rep)
		if n := o.Eng.Cache.Len(); n != original {
			t.Fatalf("cache holds %d images, want the %d initial builds still serving", n, original)
		}
	})

	t.Run("heal-failure", func(t *testing.T) {
		o := webOptions(1)
		o.Requests = 120
		seeds := make([]uint64, o.Variants)
		for i := range seeds {
			seeds[i] = o.BaseSeed + uint64(i)
		}
		if _, err := o.Eng.BuildImages(context.Background(), o.Module, o.Cfg, seeds); err != nil {
			t.Fatal(err)
		}
		o.Module.Entry = "no_such_entry"
		rep, _, _ := runFleet(t, o)
		if rep.Sim.HealFailures == 0 {
			t.Fatal("no heal failed")
		}
		want, _ := count(rep)
		if n := o.Eng.Cache.Len(); n != want {
			t.Fatalf("cache holds %d entries after %d failed heals, want the %d serving slots' images", n, rep.Sim.HealFailures, want)
		}
		// Heal seeds follow the initial ones; none may still hit.
		for k := range rep.Sim.Quarantines {
			seed := o.BaseSeed + uint64(o.Variants+k)
			if _, hit, _ := o.Eng.Cache.Image(o.Module, o.Cfg, seed, nil, nil); hit {
				t.Errorf("failed heal seed %d still has a cache entry", seed)
			}
		}
	})
}

// TestRerollHealKeepsLeakedAddressesValid is the fleet-level "more dynamism
// is less effective" ablation: against a non-adaptive attacker, fresh-seed
// rebuilds obsolete the leak after the first heal, while BTRA-only rerolls
// leave the leaked layout valid — the attacker keeps landing and the fleet
// churns through quarantines forever.
func TestRerollHealKeepsLeakedAddressesValid(t *testing.T) {
	base := func() Options {
		o := webOptions(0)
		o.Requests = 200
		o.Attack.Start = 20
		o.Attack.Adaptive = false
		return o
	}
	ro := base()
	ro.Heal = HealReroll
	reroll, _, _ := runFleet(t, ro)
	rebuild, _, _ := runFleet(t, base())
	if reroll.Sim.Detections["divergence"] <= rebuild.Sim.Detections["divergence"] {
		t.Fatalf("reroll healing should keep the leak alive: reroll %v vs rebuild %v",
			reroll.Sim.Detections, rebuild.Sim.Detections)
	}
	if rebuild.Sim.SilentCorruptions != 0 || reroll.Sim.SilentCorruptions != 0 {
		t.Fatal("supervised runs must not pass corrupted output")
	}
}

// TestRerollRejoinForksRerolledSnapshot pins that a reroll heal swaps in
// both a rerolled copy of the slot's image and a snapshot loaded from it:
// forks of the pre-reroll snapshot would carry the old AVX BTRA data words
// and run the old push immediates. The pre-reroll image, shared through
// the build cache, keeps its immediates.
func TestRerollRejoinForksRerolledSnapshot(t *testing.T) {
	for _, cfg := range []defense.Config{defense.R2CFull(), defense.R2CPush()} {
		t.Run(cfg.Name, func(t *testing.T) {
			o := webOptions(0)
			o.Cfg, o.Heal, o.Attack = cfg, HealReroll, Schedule{}
			f, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.buildInitial(context.Background()); err != nil {
				t.Fatal(err)
			}
			f.rep = &Report{}
			s := f.slots[0]
			oldImg := s.img
			oldWords := btraWords(t, s.snap.Fork(nil))
			oldImms := pushImms(oldImg)

			f.quarantine(s, 0, 1)
			if err := f.rejoinDue(1, 1, telemetry.NewHistogram(telemetry.LatencyBounds)); err != nil {
				t.Fatal(err)
			}
			if s.state != stateServing || s.gen != 1 {
				t.Fatalf("slot did not rejoin: state %s gen %d", s.state, s.gen)
			}
			p := s.snap.Fork(nil)
			if p.Img != s.img {
				t.Fatal("rejoined fork runs another image")
			}
			words := btraWords(t, p)
			for addr, v := range words {
				if want := s.img.DataInit[addr]; v != want {
					t.Fatalf("fork holds BTRA word %#x at %#x, the rerolled image %#x", v, addr, want)
				}
			}
			if len(oldWords)+len(oldImms) == 0 {
				t.Fatal("the config places no BTRA artifacts to reroll")
			}
			if len(oldWords) > 0 && reflect.DeepEqual(words, oldWords) {
				t.Fatal("the rejoined fork holds the pre-reroll AVX BTRA words")
			}
			if len(oldImms) > 0 && reflect.DeepEqual(pushImms(s.img), oldImms) {
				t.Fatal("reroll left every push immediate in place")
			}
			if s.img == oldImg || !reflect.DeepEqual(pushImms(oldImg), oldImms) {
				t.Fatal("reroll wrote the pre-reroll image")
			}
			res, err := sim.ExecMachine(context.Background(), vm.New(p, o.Prof), nil, nil, 0)
			if err != nil || !res.Halted {
				t.Fatalf("rerolled fork did not run clean: %v", err)
			}
		})
	}
}

// btraWords reads every AVX-array BTRA word from p's data section.
func btraWords(t *testing.T, p *rt.Process) map[uint64]uint64 {
	t.Helper()
	out := map[uint64]uint64{}
	for _, b := range p.Img.Prog.Blobs {
		ds := p.Img.DataSyms[b.Name]
		for i, w := range b.Words {
			if !w.BTRA {
				continue
			}
			addr := ds.Addr + uint64(i)*8
			data, _, _, ok := p.Space.Slab(addr)
			if !ok {
				t.Fatalf("%#x: BTRA word not mapped", addr)
			}
			out[addr] = binary.LittleEndian.Uint64(data[addr&mem.PageMask:])
		}
	}
	return out
}

// pushImms lists the image's BTRA push immediates in program order.
func pushImms(img *image.Image) []uint64 {
	var out []uint64
	for _, name := range img.FuncOrder {
		for _, in := range img.Funcs[name].F.Instrs {
			if in.Kind == isa.KPushImm && in.BTRA {
				out = append(out, in.Imm)
			}
		}
	}
	return out
}
