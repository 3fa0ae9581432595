package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := Median([]float64{5}); m != 5 {
		t.Errorf("median single = %v", m)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	_ = Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("median mutated input")
	}
}

func TestMedianU64(t *testing.T) {
	if m := MedianU64([]uint64{9, 1, 5}); m != 5 {
		t.Errorf("medianU64 = %d", m)
	}
}

func TestGeoMean(t *testing.T) {
	if g, err := GeoMeanErr([]float64{2, 8}); err != nil || !almost(g, 4) {
		t.Errorf("geomean = %v, %v", g, err)
	}
	if g, err := GeoMeanErr([]float64{1, 1, 1}); err != nil || !almost(g, 1) {
		t.Errorf("geomean ones = %v, %v", g, err)
	}
	if _, err := GeoMeanErr([]float64{1, 0}); err == nil {
		t.Error("geomean of a non-positive value returned no error")
	}
}

func TestOverheadAndPct(t *testing.T) {
	r, err := OverheadErr(106, 100)
	if err != nil || !almost(r, 1.06) {
		t.Errorf("overhead = %v, %v", r, err)
	}
	if p := Pct(r); !almost(p, 6) {
		t.Errorf("pct = %v", p)
	}
}

func TestBTRAGuessProbability(t *testing.T) {
	// Section 7.2.1: with ten BTRAs, four return addresses succeed with
	// probability (1/11)^4 ≈ 0.00007.
	p := BTRAGuessProbability(10, 4)
	if math.Abs(p-0.0000683) > 0.00001 {
		t.Errorf("probability = %v", p)
	}
	if p1 := BTRAGuessProbability(10, 1); !almost(p1, 1.0/11) {
		t.Errorf("single guess = %v", p1)
	}
	if p0 := BTRAGuessProbability(0, 3); !almost(p0, 1) {
		t.Errorf("no BTRAs should mean certain success, got %v", p0)
	}
}

func TestClusterValuesSeparatesRegions(t *testing.T) {
	// Three synthetic regions: "text", "heap" (most values), "stack".
	var vals []uint64
	for i := 0; i < 5; i++ {
		vals = append(vals, 0x555500000000+uint64(i)*64)
	}
	for i := 0; i < 20; i++ {
		vals = append(vals, 0x7f0000000000+uint64(i)*4096)
	}
	for i := 0; i < 10; i++ {
		vals = append(vals, 0x7ffff0000000+uint64(i)*8)
	}
	vals = append(vals, 0, 1, 42) // non-pointers
	cs := ClusterValues(vals, 1<<20, 1<<32)
	if len(cs) != 3 {
		t.Fatalf("clusters = %d, want 3", len(cs))
	}
	if cs[0].Count != 20 {
		t.Errorf("largest cluster count = %d", cs[0].Count)
	}
	if !cs[0].Contains(0x7f0000000000 + 4096) {
		t.Error("largest cluster is not the heap-like region")
	}
}

func TestClusterValuesEmptyAndFiltered(t *testing.T) {
	if cs := ClusterValues(nil, 100, 0); cs != nil {
		t.Error("nil input should give nil clusters")
	}
	if cs := ClusterValues([]uint64{1, 2, 3}, 100, 1<<32); cs != nil {
		t.Error("all-filtered input should give nil clusters")
	}
}

func TestClusterInvariants(t *testing.T) {
	err := quick.Check(func(raw []uint64) bool {
		cs := ClusterValues(raw, 1<<16, 4096)
		total := 0
		for _, c := range cs {
			total += c.Count
			if c.Lo > c.Hi || c.Count != len(c.Values) {
				return false
			}
			for _, v := range c.Values {
				if !c.Contains(v) {
					return false
				}
			}
		}
		// Population must equal the filtered input size.
		want := 0
		for _, v := range raw {
			if v >= 4096 {
				want++
			}
		}
		// Clusters are sorted by descending count.
		for i := 1; i < len(cs); i++ {
			if cs[i].Count > cs[i-1].Count {
				return false
			}
		}
		return total == want
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
