// Package exec is the experiment execution engine: a bounded worker pool
// that fans independent simulation cells across goroutines with a
// deterministic, submission-ordered merge, plus a content-addressed build
// cache that memoizes the compile+link half of the toolchain. The paper's
// evaluation sweeps configs × workloads × machines × seeds with a fresh
// re-diversified build per run (Section 6.2); the sweep cells are pure
// functions of (module content, defense config, seed, machine profile), so
// they parallelize and memoize freely — the engine exploits both without
// giving up the bit-for-bit determinism the sim determinism tests lock in.
package exec

import (
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
)

// KeySchema versions the derived artifacts attached to a cached image beyond
// the architectural bytes themselves. Bump it whenever the predecoded form
// changes shape or meaning (pcode opcodes, block/class packing), so
// persisted journals and cross-process comparisons never treat images
// predecoded under different layouts as interchangeable.
//
// Schema history:
//
//	1: architectural image only (pre-predecode)
//	2: pcode v1 — dense ops, XPushImm2/XPushImmCall/XAluAddImmCall/XVLoadStore
//	   superinstructions, packed per-block class counts, return-site indices
//	3: pcode v2 — one op per instruction; the four superinstructions removed
//	4: pcode v3 — 32-byte op, one wide operand word
const KeySchema = 4

// Key identifies one build: module content, configuration fingerprint, and
// diversification seed, plus the derived-artifact schema version. Builds with
// equal keys are bit-identical, because the whole toolchain (codegen, linker,
// loader, predecoder) is a pure function of these values.
type Key struct {
	Module string // hex of tir.Module.ContentHash
	Config string // defense.Config.Fingerprint
	Seed   uint64
	Schema int // KeySchema at build time
}

// Key computes the build-cache key for a cell. Module content hashes are
// memoized per *Module for the cache's lifetime (workload builders return a
// fresh, immutable module per call; hashing a browser-scale module once
// instead of once per cell keeps the key computation off the profile). The
// memo lives in the cache, not in a package global, so a module is
// collected with the engine that used it. Modules handed to the engine must
// not be mutated afterwards — the same immutability the parallel cells
// themselves rely on (codegen only reads the module).
func (c *Cache) Key(m *tir.Module, cfg defense.Config, seed uint64) Key {
	h, ok := c.hashes.Load(m)
	if !ok {
		sum := m.ContentHash()
		h, _ = c.hashes.LoadOrStore(m, hex.EncodeToString(sum[:]))
	}
	return Key{Module: h.(string), Config: cfg.Fingerprint(), Seed: seed, Schema: KeySchema}
}

// Cache memoizes sim.BuildImage results by content-addressed key. The cached
// value is the immutable linked image; every run instantiates a fresh
// rt.Process from it, so mutable process state (memory, heap, BTDP placement
// RNG) never leaks between cells. Concurrent requests for the same key build
// once (single-flight) and share the result. An entry lives until its holder
// calls Drop: sweeps never drop, so every repeated key in a sweep hits,
// while the serving fleet drops each image it retires, so a long run holds
// only the images its slots serve.
type Cache struct {
	// Obs receives hit/miss counters and an entry-count gauge under the
	// "exec.cache.*" namespace. Nil disables telemetry.
	Obs *telemetry.Observer

	mu      sync.Mutex
	entries map[Key]*cacheEntry
	hashes  sync.Map // *tir.Module -> hex content hash (see Key)

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheEntry struct {
	once sync.Once
	img  *image.Image
	err  error
}

// NewCache returns an empty build cache reporting into obs (may be nil).
func NewCache(obs *telemetry.Observer) *Cache {
	return &Cache{Obs: obs, entries: make(map[Key]*cacheEntry)}
}

// Image returns the linked image for (m, cfg, seed), building it on first
// use and serving the identical *image.Image on every later request with the
// same key. hit reports whether the image came from the cache.
//
// Under a non-nil parent span the lookup traces as a "cache-lookup" child
// for the key resolution and — when this requester is the one that runs the
// build — a "build" child wrapping compile+link. track, when non-nil, is
// called with the coarse phase name ("cache-lookup", "build") as the cell
// moves through the pipeline, feeding the engine's /progress snapshot. Both
// hooks are observational: a nil parent and track give the untraced call
// and the identical image.
//
// Under cache sharing, which requester runs the single-flight build closure
// is a scheduling accident, so the build span's parent (and thus its span id)
// is only deterministic across -jobs widths when cells carry distinct keys.
func (c *Cache) Image(m *tir.Module, cfg defense.Config, seed uint64, parent *telemetry.Span, track func(phase string)) (img *image.Image, hit bool, err error) {
	if track != nil {
		track("cache-lookup")
	}
	ls := parent.Child("cache-lookup", seed)
	lookupStart := time.Now()
	key := c.Key(m, cfg, seed)

	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		c.Obs.Gauge("exec.cache.entries").Set(float64(len(c.entries)))
	}
	c.mu.Unlock()
	// Lookup latency covers key computation (the module content hash on
	// first sight) plus the map critical section — the part every cell
	// pays whether it hits or misses.
	c.Obs.Histogram("exec.cache.lookup.seconds", telemetry.LatencyBounds).Observe(time.Since(lookupStart).Seconds())
	ls.SetAttr("hit", ok)
	ls.End()

	// Single-flight: every requester offers the build closure; exactly one
	// runs it and the rest block inside Do until the image is ready. The
	// entry creator counts as the miss, later arrivals as hits (their work
	// was shared even if they blocked on the in-flight build).
	e.once.Do(func() {
		if track != nil {
			track("build")
		}
		bs := parent.Child("build", seed)
		bs.SetAttr("cache", "miss")
		e.img, e.err = sim.BuildImage(m, cfg, seed, bs)
		bs.End()
	})
	if ok {
		c.hits.Add(1)
		c.Obs.Counter("exec.cache.hits").Inc()
	} else {
		c.misses.Add(1)
		c.Obs.Counter("exec.cache.misses").Inc()
	}
	return e.img, ok, e.err
}

// Process builds (or fetches) the image for (m, cfg, seed) and loads it into
// a fresh process, exactly as sim.Build would: same seed derivation,
// same load-time randomness, same telemetry hooks.
func (c *Cache) Process(m *tir.Module, cfg defense.Config, seed uint64, obs *telemetry.Observer) (*rt.Process, error) {
	img, _, err := c.Image(m, cfg, seed, nil, nil)
	if err != nil {
		return nil, err
	}
	return sim.NewProcessFromImage(img, seed, obs)
}

// Stats returns the cumulative hit and miss counts. The third result is
// always 0: every build is cacheable.
func (c *Cache) Stats() (hits, misses, _ uint64) {
	return c.hits.Load(), c.misses.Load(), 0
}

// Drop forgets the entry for (m, cfg, seed); an unknown key is a no-op.
// Requesters already inside the entry's single-flight still receive its
// image. A later Image call for the key rebuilds the identical image and
// counts a miss.
func (c *Cache) Drop(m *tir.Module, cfg defense.Config, seed uint64) {
	key := c.Key(m, cfg, seed)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		delete(c.entries, key)
		c.Obs.Gauge("exec.cache.entries").Set(float64(len(c.entries)))
	}
}

// Len returns the number of cached entries: every key looked up and not
// dropped since, including one whose build failed or is still in flight.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
