package attack

import (
	"context"
	"maps"
	"slices"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/incident"
	"r2c/internal/isa"
	"r2c/internal/telemetry"
)

// testEng is the run context the package's tests build scenarios through:
// the cached path the harnesses take.
var testEng = exec.New(1, nil)

// TestScenariosShareOneEngine builds scenarios concurrently through one
// engine, the way the bench drivers fan Monte-Carlo trials across its pool:
// each distinct victim and reference build misses the cache once and every
// repeat hits, and every probe-time BTDP detonation lands in the engine's
// incident log.
func TestScenariosShareOneEngine(t *testing.T) {
	obs := &telemetry.Observer{Registry: telemetry.NewRegistry(), FlightCap: 16}
	eng := exec.New(4, obs)
	eng.Incidents = incident.NewLog()

	cfgs := []defense.Config{defense.Off(), defense.R2CFull()}
	const seeds, repeats = 3, 2
	n := len(cfgs) * seeds * repeats
	detections := make([]int, n)
	err := eng.MapTracked(context.Background(), n, "scenario", func(i int) error {
		cfg := cfgs[i%len(cfgs)]
		seed := uint64(i/len(cfgs)%seeds + 1)
		s, err := NewScenario(eng, cfg, seed)
		if err != nil {
			return err
		}
		s.Trial = i
		for _, v := range s.Proc.BTDPValues[:min(2, len(s.Proc.BTDPValues))] {
			s.Read(v) // a BTDP dereference detonates its guard page
		}
		for _, h := range s.Forensics {
			if h.Via == "btdp-read" {
				detections[i]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every (cfg, seed) pair builds one victim and one reference image.
	distinct := uint64(2 * len(cfgs) * seeds)
	hits, misses, _ := eng.Cache.Stats()
	if misses != distinct || hits != 2*uint64(n)-distinct {
		t.Errorf("cache hits/misses = %d/%d, want %d/%d", hits, misses, 2*uint64(n)-distinct, distinct)
	}

	want := 0
	for _, d := range detections {
		want += d
	}
	if want == 0 {
		t.Fatal("no BTDP read detonated; the test no longer exercises the incident log")
	}
	got := 0
	for _, r := range eng.Incidents.Records() {
		if r.Via != "probe" || r.Trap != "btdp" {
			t.Errorf("unexpected incident %+v", r)
			continue
		}
		if len(r.Flight) == 0 {
			t.Errorf("incident %s/%d carries no flight record", r.Campaign, r.Trial)
		}
		got++
	}
	if got != want {
		t.Errorf("%d btdp-read incidents in the engine log, want %d", got, want)
	}
	if c := obs.Registry.Snapshot().Counters["attack.detections{via=btdp-read}"]; c != uint64(want) {
		t.Errorf("attack.detections{via=btdp-read} = %d, want %d", c, want)
	}
}

// TestDynamicBTRARerollSharesCache pins that the property-B ablation's
// re-rolled victim builds through the shared cache like every other
// scenario: the reroll copies the cached image, so the attack still isolates
// the real return address while the cached parent's push immediates, data
// initializer and predecoded ops stay as they were.
func TestDynamicBTRARerollSharesCache(t *testing.T) {
	for _, base := range []defense.Config{defense.R2CFull(), defense.R2CPush()} {
		t.Run(base.Name, func(t *testing.T) {
			eng := exec.New(1, nil)
			bad := base
			bad.Name += "-dynamic-btras"
			bad.InsecureDynamicBTRAs = true
			parent, _, err := eng.Cache.Image(victimModule(), bad, 11, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			pushes := func() []uint64 {
				var v []uint64
				for _, name := range parent.FuncOrder {
					for _, in := range parent.Funcs[name].F.Instrs {
						if in.Kind == isa.KPushImm && in.BTRA {
							v = append(v, in.Imm)
						}
					}
				}
				return v
			}
			pushBefore, initBefore := pushes(), maps.Clone(parent.DataInit)
			opsBefore := slices.Clone(parent.Code.Ops)

			rem, isRA, err := DynamicBTRAAttack(eng, bad, 11)
			if err != nil {
				t.Fatal(err)
			}
			if rem != 1 || !isRA {
				t.Errorf("dynamic BTRAs: %d candidates after intersection (RA identified %v), want 1 real RA", rem, isRA)
			}
			if hits, _, _ := eng.Cache.Stats(); hits == 0 || eng.Cache.Len() == 0 {
				t.Errorf("cache served %d hits and holds %d images, want both > 0", hits, eng.Cache.Len())
			}
			if !slices.Equal(pushes(), pushBefore) {
				t.Error("the reroll wrote the cached image's push immediates")
			}
			if !maps.Equal(parent.DataInit, initBefore) {
				t.Error("the reroll wrote the cached image's DataInit")
			}
			if !slices.Equal(parent.Code.Ops, opsBefore) {
				t.Error("the reroll wrote the cached image's predecoded ops")
			}
		})
	}
}

// TestDynamicBTRAAttacksRunConcurrently runs two property-B attacks on one
// (cfg, seed) at once through one engine: both reroll the same cached image,
// and each still finds the one real return address. The package runs under
// the race detector, which would flag a write to the shared image.
func TestDynamicBTRAAttacksRunConcurrently(t *testing.T) {
	eng := exec.New(2, nil)
	bad := defense.R2CFull()
	bad.Name = "r2c-dynamic-btras"
	bad.InsecureDynamicBTRAs = true
	var rem [2]int
	var isRA [2]bool
	err := eng.MapTracked(context.Background(), 2, "dynamic-btra", func(i int) error {
		var err error
		rem[i], isRA[i], err = DynamicBTRAAttack(eng, bad, 11)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rem {
		if rem[i] != 1 || !isRA[i] {
			t.Errorf("attack %d: %d candidates after intersection (RA identified %v), want 1 real RA", i, rem[i], isRA[i])
		}
	}
}
