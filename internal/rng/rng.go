// Package rng provides the deterministic pseudo-random number generator that
// drives every diversification decision in the toolchain.
//
// R2C's security argument rests on randomization being unpredictable to the
// attacker but reproducible by the defender: the paper recompiles each SPEC
// run with a fresh seed (Section 6.2) while the artifact keeps builds
// reproducible from a seed. We mirror that: a single 64-bit seed fully
// determines function order, BTRA selection, stack layouts and every other
// random choice, so a build (and an experiment) can be replayed exactly.
//
// The generator is xoshiro256** seeded through splitmix64, the combination
// recommended by its authors for arbitrary 64-bit seeds. It is not a
// cryptographic generator; the simulated attacker never attacks the stream
// itself, only the memory layouts it produces.
package rng

// splitmix64 advances a splitmix64 state and returns the next output.
// It is used only to expand the user seed into the xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; derive per-goroutine generators with Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from a single 64-bit seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent generator from this one. The derived stream
// is decorrelated by re-seeding through splitmix64, so a compiler pass can
// hand sub-generators to per-function workers without interleaving effects.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return r.boundedUint64(n)
}

// boundedUint64 implements Lemire's nearly-divisionless bounded generation
// with a rejection loop that removes modulo bias.
func (r *RNG) boundedUint64(n uint64) uint64 {
	for {
		v := r.Uint64()
		// Fast path: if n divides 2^64 the masking below is exact.
		if n&(n-1) == 0 {
			return v & (n - 1)
		}
		// Rejection sampling over the largest multiple of n.
		max := (^uint64(0)) - (^uint64(0))%n - 1
		if v <= max {
			return v % n
		}
	}
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if lo > hi.
func (r *RNG) IntRange(lo, hi int) int {
	if lo > hi {
		panic("rng: IntRange with lo > hi")
	}
	return lo + r.Intn(hi-lo+1)
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
