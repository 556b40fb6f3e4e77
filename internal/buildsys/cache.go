// Package buildsys models the distributed build system the paper's
// argument rests on (§2.1, §3.4–3.5): a fleet of build workers with
//
//   - a two-tier content-addressed action cache shared across builds and
//     phases: a size-capped local LRU tier on each worker, written
//     through to a fleet-wide remote tier whose fetches cost modeled
//     time — so unchanged work is never redone (the >90% hit rates of
//     §2.1) but warm-but-remote rebuilds are cheap, not free;
//
//   - admission control with a hard per-action RAM ceiling (~12GB on the
//     shared fleet) that a monolithic post-link rewriter cannot fit while
//     every sharded Propeller action does, plus a pool-wide concurrent
//     RSS budget that bounds how many ceiling-class actions run at once;
//
//   - a deterministic time model: actions carry modeled single-core Cost
//     seconds, and the executor list-schedules them over its slots under
//     the memory budget, so makespans for Table 5 / Fig 9 are
//     byte-identical across runs and machines instead of depending on
//     wall clocks.
//
// Action Run closures still execute for real — through par.Do, on at
// most the executor's slot count of goroutines — only the reported
// *times* are modeled.
package buildsys

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
)

// Key hashes the given parts into a content-address. Parts are
// length-prefixed before hashing so the boundary between parts is part of
// the identity: Key([]byte("ab"), []byte("c")) differs from
// Key([]byte("a"), []byte("bc")). It allocates only the key it returns: the
// parts reach the hash through the pooled digest's scratch, so they do not
// escape and a caller's []byte(s) conversions stay on its stack.
func Key(parts ...[]byte) string {
	d := digests.Get().(*digest)
	for _, p := range parts {
		writePart(d, p)
	}
	return d.key()
}

// KeyStrings is Key over string parts.
func KeyStrings(parts ...string) string {
	d := digests.Get().(*digest)
	for _, s := range parts {
		writePart(d, s)
	}
	return d.key()
}

// digest is a SHA-256 state with scratch room for a length prefix, a run of
// part bytes and the sum, recycled through digests so a key costs no
// allocation but its own string.
type digest struct {
	h   hash.Hash
	buf [512]byte
}

var digests = sync.Pool{New: func() any { return &digest{h: sha256.New()} }}

// writePart writes p's length and bytes to d's hash, copying them through
// d.buf a scratchful at a time.
func writePart[P string | []byte](d *digest, p P) {
	b := binary.LittleEndian.AppendUint64(d.buf[:0], uint64(len(p)))
	for {
		n := copy(d.buf[len(b):], p)
		d.h.Write(d.buf[:len(b)+n])
		if p = p[n:]; len(p) == 0 {
			return
		}
		b = d.buf[:0]
	}
}

// key returns the hex digest of what was written, resets d and recycles it.
func (d *digest) key() string {
	sum := d.h.Sum(d.buf[:0])
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum)
	d.h.Reset()
	digests.Put(d)
	return string(out[:])
}

// CacheStats is a point-in-time snapshot of a Cache's counters. Entries
// and Bytes describe the local tier only; the remote tier is shared and
// reports its own totals (Remote.Len, Remote.Bytes).
type CacheStats struct {
	Hits          int64 // Gets served, by either tier
	Misses        int64 // Gets served by neither tier
	Entries       int   // artifacts resident in the local tier
	Bytes         int64 // bytes resident in the local tier
	Evictions     int64 // artifacts evicted from the local tier
	EvictedBytes  int64 // bytes evicted from the local tier
	RemoteFetches int64 // Gets that fell through to the remote tier
	RemoteBytes   int64 // bytes fetched from the remote tier
}

// Cache is a content-addressed artifact store (the IR and object caches
// of Phases 1–2, consulted again by the Phase-4 relink). The local tier
// holds up to budget bytes in LRU order; when a remote tier is attached,
// Puts write through to it and Gets that miss locally fall through,
// charging the modeled fetch latency to the requesting action (GetCost).
// It is safe for concurrent use: codegen actions running in parallel on
// the executor read and write it directly.
//
// Stored artifacts are immutable and every byte is stored once: Put takes
// ownership of the buffer it is handed, which both tiers and a remote
// hit's local re-admission then share. Get and GetCost return copies the
// caller may do anything with; ViewCost returns the stored buffer itself,
// for a caller that only reads it.
//
// A local entry may also carry the decoded value of its bytes (Attach,
// ViewValueCost), so a process decodes each artifact once. The value
// belongs to the one buffer the entry stores: a Put that replaces the
// buffer, an eviction and a re-admission from the remote tier all leave the
// entry without one, and the remote tier never stores values.
type Cache struct {
	mu      sync.Mutex
	budget  int64 // local-tier byte cap; 0 = unbounded
	remote  *Remote
	entries map[string]*lruEntry
	lru     lruList

	hits          int64
	misses        int64
	liveBytes     int64
	evictions     int64
	evictedBytes  int64
	remoteFetches int64
	remoteBytes   int64
}

// NewCache returns an empty unbounded single-tier cache (a dedicated
// machine's local store, the PR-1 behavior).
func NewCache() *Cache {
	return &Cache{entries: map[string]*lruEntry{}}
}

// NewCacheWithBudget returns a cache whose local tier evicts
// least-recently-touched artifacts to stay within budget bytes. budget
// <= 0 means unbounded. Without a remote tier, evicted artifacts are
// simply gone (subsequent Gets miss).
func NewCacheWithBudget(budget int64) *Cache {
	c := NewCache()
	if budget > 0 {
		c.budget = budget
	}
	return c
}

// NewTieredCache returns the §2.1 two-tier configuration: a budget-capped
// local LRU tier written through to the shared remote tier.
func NewTieredCache(budget int64, remote *Remote) *Cache {
	c := NewCacheWithBudget(budget)
	c.remote = remote
	return c
}

// Get returns a copy of the artifact stored under key, consulting the
// local tier first and falling through to the remote tier. The copy
// keeps callers from aliasing cache-owned memory (decoding an object in
// one action must not be able to corrupt another action's fetch). Use
// GetCost when the caller is an action that must pay for remote fetches.
func (c *Cache) Get(key string) ([]byte, bool) {
	data, _, ok := c.GetCost(key)
	return data, ok
}

// GetCost is Get plus the modeled seconds the fetch costs the requesting
// action: zero on a local hit or a miss, the remote tier's fetch latency
// when the artifact had to cross the network. A remote hit re-admits the
// artifact into the local tier (evicting under the budget as needed), so
// repeated Gets pay the network once.
func (c *Cache) GetCost(key string) ([]byte, float64, bool) {
	data, cost, ok := c.ViewCost(key)
	if !ok {
		return nil, 0, false
	}
	return cloneBytes(data), cost, true
}

// SizeCost is GetCost for a caller that is charged for the artifact but
// never reads it: the artifact's length instead of a copy of its bytes.
// Counters, recency order, remote re-admission and eviction move exactly as
// under GetCost.
func (c *Cache) SizeCost(key string) (int64, float64, bool) {
	data, cost, ok := c.ViewCost(key)
	return int64(len(data)), cost, ok
}

// ViewCost is GetCost without the copy, for a caller that decodes the
// artifact and keeps nothing that aliases it: the cache-owned buffer, which
// the caller must not write. Counters, recency order, remote re-admission
// and eviction move exactly as under GetCost.
func (c *Cache) ViewCost(key string) ([]byte, float64, bool) {
	data, _, cost, ok := c.ViewValueCost(key)
	return data, cost, ok
}

// ViewValueCost is ViewCost plus the value attached to the stored buffer,
// nil when none is: always so after a remote hit, whose re-admitted entry
// starts without one. Counters, recency order, remote re-admission and
// eviction move exactly as under GetCost.
func (c *Cache) ViewValueCost(key string) (data []byte, val any, cost float64, ok bool) {
	c.mu.Lock()
	if e, local := c.entries[key]; local {
		c.hits++
		c.lru.moveToFront(e)
		c.mu.Unlock()
		return e.data, e.val, 0, true
	}
	remote := c.remote
	if remote == nil {
		c.misses++
		c.mu.Unlock()
		return nil, nil, 0, false
	}
	c.mu.Unlock()

	data, ok = remote.get(key) // remote holds its own lock
	cost = remote.FetchCost(int64(len(data)))

	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.misses++
		return nil, nil, 0, false
	}
	c.hits++
	c.remoteFetches++
	c.remoteBytes += int64(len(data))
	// Re-admit locally unless a concurrent Get or Put beat us to it.
	if _, exists := c.entries[key]; !exists {
		c.insertLocked(key, data)
		c.evictLocked()
	}
	return data, nil, cost, true
}

// Attach records v as the decoded value of the artifact under key, which
// later ViewValueCost hits return beside its bytes. data must be the buffer
// the caller stored or was handed by a lookup: v is attached only while the
// local entry still stores that very buffer, and Attach does nothing when
// the entry is gone, holds another buffer, or data is empty. The value is
// shared by every later reader, so it must never be written.
func (c *Cache) Attach(key string, data []byte, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && len(data) > 0 && len(e.data) == len(data) && &e.data[0] == &data[0] {
		e.val = v
	}
}

// Put stores data under key, writing through to the remote tier when one
// is attached. The cache takes ownership of data: the caller hands over a
// buffer it never writes again, and both tiers keep that one buffer.
// Content addressing makes overwrites idempotent by construction, so Put
// does not distinguish insert from replace; either way the entry starts
// without a decoded value.
func (c *Cache) Put(key string, data []byte) {
	if c.remote != nil {
		c.remote.Put(key, data)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.liveBytes += int64(len(data)) - int64(len(e.data))
		e.data, e.val = data, nil
		c.lru.moveToFront(e)
	} else {
		c.insertLocked(key, data)
	}
	c.evictLocked()
}

// insertLocked adds a fresh most-recently-used entry. Caller holds mu.
func (c *Cache) insertLocked(key string, stored []byte) {
	e := &lruEntry{key: key, data: stored}
	c.entries[key] = e
	c.lru.pushFront(e)
	c.liveBytes += int64(len(stored))
}

// evictLocked drops least-recently-touched entries until the local tier
// fits its budget. Caller holds mu.
func (c *Cache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for c.liveBytes > c.budget && c.lru.back != nil {
		victim := c.lru.back
		c.lru.remove(victim)
		delete(c.entries, victim.key)
		c.liveBytes -= int64(len(victim.data))
		c.evictions++
		c.evictedBytes += int64(len(victim.data))
	}
}

// Contains reports whether key is present in either tier without
// touching the hit/miss counters or recency order (an existence probe,
// not a fetch).
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	_, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		return true
	}
	return c.remote != nil && c.remote.Contains(key)
}

// Len returns the number of artifacts resident in the local tier.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the cache's counters. It is how the cold-object-reuse
// story of Fig 9 — and the eviction/remote-fetch economics behind it —
// is observed by tests and reports.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Entries:       len(c.entries),
		Bytes:         c.liveBytes,
		Evictions:     c.evictions,
		EvictedBytes:  c.evictedBytes,
		RemoteFetches: c.remoteFetches,
		RemoteBytes:   c.remoteBytes,
	}
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
