package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 60 {
		t.Fatalf("zero seed generator looks degenerate: %d distinct of 64", len(seen))
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for n := 1; n <= 100; n++ {
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange(3,7) = %d", v)
		}
	}
	if v := r.IntRange(5, 5); v != 5 {
		t.Fatalf("IntRange(5,5) = %d", v)
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared style sanity check over a small modulus.
	r := New(1234)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	for b, c := range counts {
		// Expected 10000 per bucket; allow 5% deviation.
		if c < 9500 || c > 10500 {
			t.Fatalf("bucket %d has %d hits, expected ~10000", b, c)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPermShuffles(t *testing.T) {
	// At least one of a few seeds must produce a non-identity permutation.
	for seed := uint64(0); seed < 4; seed++ {
		p := New(seed).Perm(32)
		for i, v := range p {
			if i != v {
				return
			}
		}
	}
	t.Fatal("Perm produced the identity for every seed")
}

func TestSplitDecorrelates(t *testing.T) {
	parent := New(77)
	child := parent.Split()
	matches := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("split stream tracks parent: %d matches", matches)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
