package lm

// DefaultDistCacheSize is the default slot count of a model's distribution
// cache. At branch ≈ 16 a filled cache holds about 1 MB of entries per
// model; one cache per model per engine keeps even a many-worker parallel
// sweep modest.
const DefaultDistCacheSize = 1 << 12

// distCache is a fixed-size direct-mapped memo of next-token distributions.
//
// Keys are 64-bit context hashes (one per model whose seed shaped the
// distribution), and lookups compare the FULL key pair, so the cache is
// exact: a collision on the slot index evicts, it never aliases. Eviction is
// overwrite-on-collision — no clocks, no lists, nothing to drift; cached and
// uncached runs are byte-identical by construction.
//
// Entries live in one slab owned by the cache: slot i owns the width-entry
// region slab[i*width : (i+1)*width], and a miss builds its distribution
// straight into the region of the slot it will occupy, so a warm miss
// allocates nothing. Evicting a slot overwrites its region, which is why a
// returned Dist is only valid until the model's next Dist call. The slots
// and slab are allocated on the first miss, not at construction: many
// models (a vLLM replica's unused draft, say) are built and never queried.
//
// A nil *distCache is a valid, disabled cache (every get misses, region
// allocates fresh, put is a no-op), which is the reference path for
// determinism tests.
type distCache struct {
	slots  []distCacheSlot
	slab   []TokenProb
	mask   uint64
	hits   uint64
	misses uint64
}

type distCacheSlot struct {
	k1, k2 uint64
	full   bool
	dist   Dist
}

// newDistCache builds a cache with at least size slots (rounded up to a
// power of two). size <= 0 returns nil: caching disabled.
func newDistCache(size int) *distCache {
	if size <= 0 {
		return nil
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &distCache{mask: uint64(n - 1)}
}

// get returns the cached distribution for the key pair, if present.
func (c *distCache) get(k1, k2 uint64) (Dist, bool) {
	if c == nil {
		return Dist{}, false
	}
	if c.slots != nil {
		s := &c.slots[(k1^k2)&c.mask]
		if s.full && s.k1 == k1 && s.k2 == k2 {
			c.hits++
			return s.dist, true
		}
	}
	c.misses++
	return Dist{}, false
}

// region returns an empty entry buffer of capacity width for a miss on the
// key pair to build its distribution in: the slab region of the slot the
// pair maps to, allocating the slots and slab on first use. width is the
// model's candidate-set size and must be the same on every call. A nil
// cache returns a freshly allocated buffer.
func (c *distCache) region(k1, k2 uint64, width int) []TokenProb {
	if c == nil {
		return make([]TokenProb, 0, width)
	}
	if c.slots == nil {
		n := int(c.mask) + 1
		c.slots = make([]distCacheSlot, n)
		c.slab = make([]TokenProb, n*width)
	}
	i := int((k1^k2)&c.mask) * width
	return c.slab[i : i : i+width]
}

// put stores a distribution, evicting whatever occupied the slot. d's
// entries must have been built in region(k1, k2, ...).
func (c *distCache) put(k1, k2 uint64, d Dist) {
	if c == nil {
		return
	}
	c.slots[(k1^k2)&c.mask] = distCacheSlot{k1: k1, k2: k2, full: true, dist: d}
}

// stats returns cumulative (hits, misses).
func (c *distCache) stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits, c.misses
}
