package vm

import (
	"testing"

	"r2c/internal/rng"
)

// refICache is the i-cache model as one tag stack per set, most recent
// first — the straightforward LRU the flat icache must reproduce access
// for access.
type refICache struct {
	sets     [][]uint64
	ways     int
	lineBits uint
}

func (c *refICache) access(addr uint64) bool {
	line := addr >> c.lineBits
	s := line % uint64(len(c.sets))
	set := c.sets[s]
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return false
		}
	}
	if len(set) < c.ways {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[s] = set
	return true
}

// TestICacheMatchesPerSetLRU drives the flat i-cache and the per-set
// reference with one random fetch stream, flushes and resets included, and
// requires the same hit/miss answer on every access.
func TestICacheMatchesPerSetLRU(t *testing.T) {
	profiles := []*Profile{
		EPYCRome(),
		{ICacheBytes: 512, ICacheLineB: 64, ICacheWays: 2},
		{ICacheBytes: 256, ICacheLineB: 32, ICacheWays: 8},
		{ICacheBytes: 64, ICacheLineB: 64, ICacheWays: 4}, // one set
	}
	for _, p := range profiles {
		c := newICache(p)
		nSets := len(c.fill)
		ref := &refICache{sets: make([][]uint64, nSets), ways: p.ICacheWays, lineBits: c.lineBits}
		r := rng.New(uint64(p.ICacheBytes))
		// Enough distinct lines to overflow every set several times over.
		span := uint64(4 * nSets * p.ICacheWays * p.ICacheLineB)
		misses := uint64(0)
		for i := 0; i < 200_000; i++ {
			switch r.Intn(5000) {
			case 0:
				c.flush()
				ref.sets = make([][]uint64, nSets)
			case 1:
				c.reset()
				ref.sets = make([][]uint64, nSets)
				misses = 0
			}
			addr := 0x400000 + uint64(r.Intn(int(span)))
			got, want := c.access(addr), ref.access(addr)
			if got != want {
				t.Fatalf("%d-byte %d-way cache, access %d at %#x: miss=%v, reference miss=%v", p.ICacheBytes, p.ICacheWays, i, addr, got, want)
			}
			if want {
				misses++
			}
		}
		if c.misses != misses {
			t.Fatalf("%d-byte cache counted %d misses, reference %d", p.ICacheBytes, c.misses, misses)
		}
	}
}
