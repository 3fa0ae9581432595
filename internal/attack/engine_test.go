package attack

import (
	"context"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/incident"
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
	hits, misses, bypasses := eng.Cache.Stats()
	if misses != distinct || hits != 2*uint64(n)-distinct || bypasses != 0 {
		t.Errorf("cache hits/misses/bypasses = %d/%d/%d, want %d/%d/0", hits, misses, bypasses, 2*uint64(n)-distinct, distinct)
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

// TestDynamicBTRARerollBypassesCache pins that the one scenario which patches
// its image after loading (the property-B ablation's BTRA re-roll) never
// builds through a shared cache entry: its configuration is uncacheable, so
// the rerolled victim counts as a bypass and nothing is memoized.
func TestDynamicBTRARerollBypassesCache(t *testing.T) {
	obs := &telemetry.Observer{Registry: telemetry.NewRegistry()}
	eng := exec.New(1, obs)
	bad := defense.R2CFull()
	bad.Name = "r2c-dynamic-btras"
	bad.InsecureDynamicBTRAs = true

	rem, isRA, err := DynamicBTRAAttack(eng, bad, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rem != 1 || !isRA {
		t.Errorf("dynamic BTRAs: %d candidates after intersection (RA identified %v), want 1 real RA", rem, isRA)
	}
	// Two scenarios, each a victim and a reference build; the second
	// victim is the rerolled one.
	if got := obs.Registry.Snapshot().Counters["exec.cache.bypasses"]; got != 4 {
		t.Errorf("exec.cache.bypasses = %d, want 4", got)
	}
	if hits, misses, _ := eng.Cache.Stats(); hits+misses != 0 || eng.Cache.Len() != 0 {
		t.Errorf("cache served %d hits / %d misses and holds %d images for %s, want none", hits, misses, eng.Cache.Len(), bad.Fingerprint())
	}
}
