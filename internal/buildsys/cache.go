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
	"sync"
)

// Key hashes the given parts into a content-address. Parts are
// length-prefixed before hashing so the boundary between parts is part of
// the identity: Key([]byte("ab"), []byte("c")) differs from
// Key([]byte("a"), []byte("bc")).
func Key(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// KeyStrings is Key over string parts.
func KeyStrings(parts ...string) string {
	bs := make([][]byte, len(parts))
	for i, s := range parts {
		bs[i] = []byte(s)
	}
	return Key(bs...)
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
	data, cost, ok := c.lookup(key)
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
	data, cost, ok := c.lookup(key)
	return int64(len(data)), cost, ok
}

// lookup is GetCost without the copy: it returns the cache-owned buffer,
// which the caller must neither mutate nor hand out.
func (c *Cache) lookup(key string) ([]byte, float64, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.moveToFront(e)
		c.mu.Unlock()
		return e.data, 0, true
	}
	remote := c.remote
	if remote == nil {
		c.misses++
		c.mu.Unlock()
		return nil, 0, false
	}
	c.mu.Unlock()

	data, ok := remote.get(key) // remote holds its own lock
	cost := remote.FetchCost(int64(len(data)))

	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.misses++
		return nil, 0, false
	}
	c.hits++
	c.remoteFetches++
	c.remoteBytes += int64(len(data))
	// Re-admit locally unless a concurrent Get or Put beat us to it.
	if _, exists := c.entries[key]; !exists {
		c.insertLocked(key, cloneBytes(data))
		c.evictLocked()
	}
	return data, cost, true
}

// Put stores a copy of data under key, writing through to the remote
// tier when one is attached. Content addressing makes overwrites
// idempotent by construction, so Put does not distinguish insert from
// replace.
func (c *Cache) Put(key string, data []byte) {
	stored := cloneBytes(data)
	if c.remote != nil {
		// Write-through: the remote tier shares the private copy, which
		// is never mutated after this point.
		c.remote.putShared(key, stored)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.liveBytes += int64(len(stored)) - int64(len(e.data))
		e.data = stored
		c.lru.moveToFront(e)
	} else {
		c.insertLocked(key, stored)
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
