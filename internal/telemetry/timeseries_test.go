package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestTimeSeriesRingOverwrite(t *testing.T) {
	obs := &Observer{Registry: NewRegistry()}
	ss := NewSeriesSet(4, obs)
	for i := 0; i < 10; i++ {
		ss.Sample(float64(i), "m", float64(i*i))
	}
	snap := ss.Snapshot(nil, 0)
	if len(snap.Series) != 1 {
		t.Fatalf("series count = %d, want 1", len(snap.Series))
	}
	sd := snap.Series[0]
	if len(sd.Points) != 4 {
		t.Fatalf("ring kept %d points, want 4 (the capacity)", len(sd.Points))
	}
	// The survivors are the newest four, oldest first.
	for i, p := range sd.Points {
		wantT := float64(6 + i)
		if p[0] != wantT || p[1] != wantT*wantT {
			t.Fatalf("point %d = %v, want [%g %g]", i, p, wantT, wantT*wantT)
		}
	}
	if sd.Dropped != 6 {
		t.Fatalf("per-series dropped = %d, want 6", sd.Dropped)
	}
	reg := obs.Reg().Snapshot()
	if got := reg.Counters["telemetry.series.dropped"]; got != 6 {
		t.Fatalf("telemetry.series.dropped = %d, want 6", got)
	}
	if snap.Now != 9 {
		t.Fatalf("snapshot now = %g, want 9", snap.Now)
	}
}

func TestSeriesSetSkipsNonFinite(t *testing.T) {
	ss := NewSeriesSet(8, nil)
	ss.Sample(1, "m", math.NaN())
	ss.Sample(2, "m", math.Inf(1))
	ss.Sample(3, "m", math.Inf(-1))
	ss.Sample(4, "m", 7)
	snap := ss.Snapshot(nil, 0)
	if len(snap.Series) != 1 || len(snap.Series[0].Points) != 1 {
		t.Fatalf("non-finite samples were not skipped: %+v", snap)
	}
	if p := snap.Series[0].Points[0]; p != (SeriesPoint{4, 7}) {
		t.Fatalf("surviving point = %v, want [4 7]", p)
	}
}

func TestSeriesSnapshotFilterAndLast(t *testing.T) {
	ss := NewSeriesSet(16, nil)
	for i := 0; i < 6; i++ {
		ss.Sample(float64(i), "fleet.sojourn.p99", float64(i))
		ss.Sample(float64(i), Key("fleet.variant.sojourn", "slot", "0"), float64(i))
		ss.Sample(float64(i), "exec.cells.done", float64(i))
	}

	// Exact name.
	snap := ss.Snapshot([]string{"fleet.sojourn.p99"}, 0)
	if len(snap.Series) != 1 || snap.Series[0].Name != "fleet.sojourn.p99" {
		t.Fatalf("exact filter: %+v", snap.Series)
	}
	// Bare prefix matches derived series and labeled families.
	snap = ss.Snapshot([]string{"fleet.sojourn", "fleet.variant.sojourn"}, 0)
	if len(snap.Series) != 2 {
		t.Fatalf("prefix filter kept %d series, want 2", len(snap.Series))
	}
	// A labeled reference is exact-only.
	snap = ss.Snapshot([]string{Key("fleet.variant.sojourn", "slot", "0")}, 0)
	if len(snap.Series) != 1 {
		t.Fatalf("labeled filter kept %d series, want 1", len(snap.Series))
	}
	// last trims each series to its newest points.
	snap = ss.Snapshot(nil, 2)
	for _, sd := range snap.Series {
		if len(sd.Points) != 2 || sd.Points[0][0] != 4 || sd.Points[1][0] != 5 {
			t.Fatalf("last=2 kept %v for %s", sd.Points, sd.Name)
		}
	}
}

func TestSeriesSetNilSafety(t *testing.T) {
	var ss *SeriesSet
	ss.Sample(1, "m", 2) // must not panic
	snap := ss.Snapshot(nil, 0)
	if snap == nil || len(snap.Series) != 0 || snap.Now != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	body, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal nil snapshot: %v", err)
	}
	if !bytes.Contains(body, []byte(`"series": []`)) && !bytes.Contains(body, []byte(`"series":[]`)) {
		t.Fatalf("nil snapshot marshals %s, want an empty series array", body)
	}
}

func TestSeriesWriteJSONIsValid(t *testing.T) {
	ss := NewSeriesSet(8, nil)
	ss.Sample(0.5, "a", 1)
	ss.Sample(1.5, "b", 2)
	var buf bytes.Buffer
	if err := ss.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap SeriesSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(snap.Series) != 2 || snap.Series[0].Name != "a" || snap.Series[1].Name != "b" {
		t.Fatalf("round-trip snapshot: %+v", snap)
	}
	if snap.Now != 1.5 {
		t.Fatalf("round-trip now = %g", snap.Now)
	}
}
