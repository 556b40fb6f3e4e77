package buildsys

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestKeyPartBoundaries(t *testing.T) {
	// The split between parts is part of the identity.
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Error("Key ignores part boundaries")
	}
	if Key([]byte("ab")) == Key([]byte("ab"), nil) {
		t.Error("trailing empty part does not change the key")
	}
	if Key([]byte("ab")) != Key([]byte("ab")) {
		t.Error("Key not deterministic")
	}
	if KeyStrings("obj", "k1") != Key([]byte("obj"), []byte("k1")) {
		t.Error("KeyStrings disagrees with Key")
	}
	if len(Key()) == 0 {
		t.Error("empty key")
	}
}

func TestCachePutGetStats(t *testing.T) {
	c := NewCache()
	if _, ok := c.Get("missing"); ok {
		t.Fatal("hit on empty cache")
	}
	k := KeyStrings("ir", "mod1")
	c.Put(k, []byte("artifact"))
	got, ok := c.Get(k)
	if !ok || string(got) != "artifact" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if !c.Contains(k) || c.Contains("nope") {
		t.Error("Contains wrong")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != int64(len("artifact")) {
		t.Errorf("Stats = %+v", st)
	}
	if st.Evictions != 0 || st.EvictedBytes != 0 || st.RemoteFetches != 0 || st.RemoteBytes != 0 {
		t.Errorf("unbounded single-tier cache has tier activity: %+v", st)
	}
	// Re-Put under the same key replaces, not accumulates, the bytes.
	c.Put(k, []byte("v2"))
	st = c.Stats()
	if st.Entries != 1 || st.Bytes != 2 {
		t.Errorf("after overwrite: %d entries, %d bytes", st.Entries, st.Bytes)
	}
}

// TestCacheIsolatesCallerBuffers: Put keeps the very buffer it is handed
// (the caller gives it up), ViewCost hands that buffer out, and Get hands
// out copies that a caller may write without reaching the cache.
func TestCacheIsolatesCallerBuffers(t *testing.T) {
	c := NewCache()
	src := []byte("original")
	c.Put("k", src)
	if view, _, ok := c.ViewCost("k"); !ok || &view[0] != &src[0] {
		t.Errorf("Put stored a copy of the buffer it took over: %q ok=%v", view, ok)
	}
	got, _ := c.Get("k")
	if string(got) != "original" {
		t.Errorf("Get = %q, want the stored artifact", got)
	}
	got[0] = 'Y' // caller mutates a fetched artifact
	again, _ := c.Get("k")
	if string(again) != "original" {
		t.Errorf("Get aliased cache memory: %q", again)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache()
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := KeyStrings("obj", fmt.Sprintf("%d-%d", w, i))
				c.Put(k, []byte{byte(w), byte(i)})
				if data, ok := c.Get(k); !ok || len(data) != 2 {
					t.Errorf("lost own write %s", k)
				}
				c.Get("miss") // exercise the miss path concurrently too
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != writers*perWriter {
		t.Errorf("Len = %d, want %d", c.Len(), writers*perWriter)
	}
	st := c.Stats()
	if st.Hits != writers*perWriter || st.Misses != writers*perWriter {
		t.Errorf("hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.Entries != writers*perWriter || st.Bytes != int64(2*writers*perWriter) {
		t.Errorf("entries=%d bytes=%d", st.Entries, st.Bytes)
	}
}

// TestCacheKeyChurnUnderEpochs replays the incremental analyzer's access
// pattern on a budget-bounded cache: the same function content hashes
// re-put under successive profile-epoch keys. Every epoch adds a fresh
// entry per function (the old epoch's entries go stale, they are never
// overwritten), so the budget must evict oldest-epoch entries with exact
// accounting: bytes resident + bytes evicted == bytes inserted, and the
// hit/miss counters must reconcile with the replayed access arithmetic.
func TestCacheKeyChurnUnderEpochs(t *testing.T) {
	const funcs = 8
	entry := bytes.Repeat([]byte{0xAB}, 100)
	// Budget holds exactly two epochs' worth of per-function entries.
	c := NewCacheWithBudget(int64(2 * funcs * len(entry)))

	var inserted int64
	key := func(epoch, fn int) string {
		return KeyStrings("layout", fmt.Sprintf("epoch-%d", epoch), fmt.Sprintf("hash-%d", fn))
	}
	var wantHits, wantMisses int64
	for epoch := 1; epoch <= 4; epoch++ {
		for fn := 0; fn < funcs; fn++ {
			// Warm re-analysis: probe this epoch's key, then publish.
			if _, ok := c.Get(key(epoch, fn)); ok {
				t.Fatalf("epoch %d fn %d: hit before put", epoch, fn)
			}
			wantMisses++
			c.Put(key(epoch, fn), entry)
			inserted += int64(len(entry))
			// Same-epoch re-analysis: must hit.
			if _, ok := c.Get(key(epoch, fn)); !ok {
				t.Fatalf("epoch %d fn %d: miss after put", epoch, fn)
			}
			wantHits++
		}
	}
	st := c.Stats()
	if st.Hits != wantHits || st.Misses != wantMisses {
		t.Errorf("hits/misses = %d/%d, want %d/%d", st.Hits, st.Misses, wantHits, wantMisses)
	}
	// Exact byte conservation: everything inserted is either resident or
	// accounted as evicted.
	if st.Bytes+st.EvictedBytes != inserted {
		t.Errorf("bytes %d + evicted %d != inserted %d", st.Bytes, st.EvictedBytes, inserted)
	}
	// Two epochs fit; two epochs' worth of older entries must have been
	// evicted, entry by entry.
	if st.Evictions != 2*funcs {
		t.Errorf("evictions = %d, want %d", st.Evictions, 2*funcs)
	}
	if st.Entries != 2*funcs {
		t.Errorf("entries = %d, want %d", st.Entries, 2*funcs)
	}
	// The stale epochs are gone, the recent two are resident.
	for fn := 0; fn < funcs; fn++ {
		if c.Contains(key(1, fn)) || c.Contains(key(2, fn)) {
			t.Fatalf("fn %d: stale epoch entry still resident", fn)
		}
		if !c.Contains(key(3, fn)) || !c.Contains(key(4, fn)) {
			t.Fatalf("fn %d: recent epoch entry evicted", fn)
		}
	}
	// Re-putting an identical (key, value) pair must not double-count
	// resident bytes.
	before := c.Stats()
	c.Put(key(4, 0), entry)
	after := c.Stats()
	if after.Bytes != before.Bytes || after.Entries != before.Entries {
		t.Errorf("idempotent re-put changed accounting: %+v vs %+v", after, before)
	}
}

// lruKeys lists the local tier's keys, most recently touched first.
func lruKeys(c *Cache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for e := c.lru.front; e != nil; e = e.next {
		keys = append(keys, e.key)
	}
	return keys
}

// TestSizeCostMatchesGetCost: SizeCost charges and books a lookup exactly
// as GetCost does — size, cost, hit/miss and remote counters, recency
// order, re-admission and eviction — on two caches built the same way.
func TestSizeCostMatchesGetCost(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func() (*Cache, *Remote)
		key   string
		ok    bool  // the lookup hits
		evict int64 // local evictions after it
	}{
		{"local hit", func() (*Cache, *Remote) {
			c := NewCacheWithBudget(8)
			c.Put("a", []byte("aaaa"))
			c.Put("b", []byte("bbbb"))
			return c, nil
		}, "a", true, 0},
		{"remote hit", func() (*Cache, *Remote) {
			r := NewRemote()
			r.Put("a", []byte("aaaa"))
			return NewTieredCache(0, r), r
		}, "a", true, 0},
		{"miss", func() (*Cache, *Remote) {
			r := NewRemote()
			c := NewTieredCache(8, r)
			c.Put("b", []byte("bbbb"))
			return c, r
		}, "a", false, 0},
		{"budgeted eviction", func() (*Cache, *Remote) {
			r := NewRemote()
			c := NewTieredCache(8, r)
			for _, k := range []string{"a", "b", "c"} {
				c.Put(k, []byte(k+k+k+k)) // "a" leaves the local tier
			}
			return c, r
		}, "a", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gc, gr := tc.setup()
			data, gCost, gOK := gc.GetCost(tc.key)
			sc, sr := tc.setup()
			size, sCost, sOK := sc.SizeCost(tc.key)
			if size != int64(len(data)) || sCost != gCost || sOK != gOK {
				t.Errorf("SizeCost = (%d, %v, %v), GetCost = (%d bytes, %v, %v)", size, sCost, sOK, len(data), gCost, gOK)
			}
			if gOK != tc.ok || gc.Stats().Evictions != tc.evict {
				t.Fatalf("setup: GetCost ok=%v with %d evictions, want ok=%v with %d", gOK, gc.Stats().Evictions, tc.ok, tc.evict)
			}
			if g, s := gc.Stats(), sc.Stats(); g != s {
				t.Errorf("stats: SizeCost %+v, GetCost %+v", s, g)
			}
			if g, s := lruKeys(gc), lruKeys(sc); fmt.Sprint(g) != fmt.Sprint(s) {
				t.Errorf("recency order: SizeCost %v, GetCost %v", s, g)
			}
			if gr != nil && gr.Fetches() != sr.Fetches() {
				t.Errorf("remote fetches: SizeCost %d, GetCost %d", sr.Fetches(), gr.Fetches())
			}

			// ViewCost books the lookup the same way and reads GetCost's bytes.
			vc, vr := tc.setup()
			view, vCost, vOK := vc.ViewCost(tc.key)
			if !bytes.Equal(view, data) || vCost != gCost || vOK != gOK {
				t.Errorf("ViewCost = (%q, %v, %v), GetCost = (%q, %v, %v)", view, vCost, vOK, data, gCost, gOK)
			}
			if g, v := gc.Stats(), vc.Stats(); g != v {
				t.Errorf("stats: ViewCost %+v, GetCost %+v", v, g)
			}
			if g, v := lruKeys(gc), lruKeys(vc); fmt.Sprint(g) != fmt.Sprint(v) {
				t.Errorf("recency order: ViewCost %v, GetCost %v", v, g)
			}
			if gr != nil && gr.Fetches() != vr.Fetches() {
				t.Errorf("remote fetches: ViewCost %d, GetCost %d", vr.Fetches(), gr.Fetches())
			}

			// So does ViewValueCost, which finds no value where none was
			// attached.
			xc, xr := tc.setup()
			xView, val, xCost, xOK := xc.ViewValueCost(tc.key)
			if !bytes.Equal(xView, data) || val != nil || xCost != gCost || xOK != gOK {
				t.Errorf("ViewValueCost = (%q, %v, %v, %v), GetCost = (%q, %v, %v)", xView, val, xCost, xOK, data, gCost, gOK)
			}
			if g, x := gc.Stats(), xc.Stats(); g != x {
				t.Errorf("stats: ViewValueCost %+v, GetCost %+v", x, g)
			}
			if g, x := lruKeys(gc), lruKeys(xc); fmt.Sprint(g) != fmt.Sprint(x) {
				t.Errorf("recency order: ViewValueCost %v, GetCost %v", x, g)
			}
			if gr != nil && gr.Fetches() != xr.Fetches() {
				t.Errorf("remote fetches: ViewValueCost %d, GetCost %d", xr.Fetches(), gr.Fetches())
			}
		})
	}
}

// TestDecodedValueContract: a value attached to an entry's stored buffer
// comes back with every later hit on it, and nothing else carries it: a
// replacing Put, an attach to a buffer the entry no longer stores, an
// eviction and a re-admission from the remote tier all leave the entry
// without one.
func TestDecodedValueContract(t *testing.T) {
	value := func(c *Cache, key string) any {
		_, v, _, _ := c.ViewValueCost(key)
		return v
	}
	t.Run("attach and hit", func(t *testing.T) {
		c := NewCache()
		data := []byte("bytes")
		c.Put("k", data)
		c.Attach("k", data, "decoded")
		for range 2 {
			if v := value(c, "k"); v != "decoded" {
				t.Fatalf("value = %v, want the attached one on every hit", v)
			}
		}
		if st := c.Stats(); st.Hits != 2 || st.Misses != 0 {
			t.Errorf("Attach booked a lookup: %+v", st)
		}
		c.Attach("absent", data, "decoded")
		if c.Contains("absent") {
			t.Error("Attach created an entry")
		}
	})
	t.Run("replacing put clears", func(t *testing.T) {
		c := NewCache()
		old := []byte("bytes")
		c.Put("k", old)
		c.Attach("k", old, "decoded")
		c.Put("k", []byte("bytes")) // same content, another buffer
		if v := value(c, "k"); v != nil {
			t.Errorf("value after a replacing Put = %v, want none", v)
		}
	})
	t.Run("stale buffer", func(t *testing.T) {
		c := NewCache()
		old, cur := []byte("bytes"), []byte("bytes")
		c.Put("k", old)
		c.Put("k", cur)
		c.Attach("k", old, "stale")
		c.Attach("k", cur[:4], "short")
		c.Attach("k", append([]byte(nil), cur...), "copy")
		if v := value(c, "k"); v != nil {
			t.Errorf("value attached through a buffer the entry does not store: %v", v)
		}
		view, _, _ := c.ViewCost("k")
		c.Attach("k", view, "decoded")
		if v := value(c, "k"); v != "decoded" {
			t.Errorf("value attached through the viewed buffer = %v, want it", v)
		}
	})
	t.Run("remote hit re-admits bare", func(t *testing.T) {
		r := NewRemote()
		a := NewTieredCache(0, r)
		data := []byte("bytes")
		a.Put("k", data)
		a.Attach("k", data, "decoded")
		b := NewTieredCache(0, r)
		view, v, _, ok := b.ViewValueCost("k")
		if !ok || v != nil || &view[0] != &data[0] {
			t.Fatalf("remote hit = (%q, %v, %v), want the shared buffer and no value", view, v, ok)
		}
		if v := value(b, "k"); v != nil {
			t.Errorf("re-admitted entry carries %v", v)
		}
		if v := value(a, "k"); v != "decoded" {
			t.Errorf("the writer's own entry lost its value: %v", v)
		}
	})
	t.Run("eviction drops", func(t *testing.T) {
		r := NewRemote()
		c := NewTieredCache(8, r)
		data := []byte("aaaa")
		c.Put("a", data)
		c.Attach("a", data, "decoded")
		c.Put("b", []byte("bbbb"))
		c.Put("c", []byte("cccc")) // "a" leaves the local tier
		if st := c.Stats(); st.Evictions != 1 {
			t.Fatalf("setup: %d evictions, want 1", st.Evictions)
		}
		if v := value(c, "a"); v != nil {
			t.Errorf("value survived the eviction: %v", v)
		}
		if st := c.Stats(); st.RemoteFetches != 1 {
			t.Errorf("evicted entry not fetched from the remote tier: %+v", st)
		}
	})
}

// keyReference is Key as it was first written: each part's length and
// bytes through a fresh sha256, the sum hex-encoded. Key and KeyStrings
// must keep returning exactly its keys (cache entries and build IDs are
// named by them).
func keyReference(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKeysMatchReference: Key and KeyStrings equal the reference on random
// parts (empty, short, and past a SHA-256 block and the pooled scratch),
// and each allocates only the key it returns.
func TestKeysMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		parts := make([][]byte, rng.Intn(6))
		strs := make([]string, len(parts))
		for j := range parts {
			parts[j] = make([]byte, []int{0, 1, 7, 64, 200, 5000}[rng.Intn(6)])
			rng.Read(parts[j])
			strs[j] = string(parts[j])
		}
		want := keyReference(parts...)
		if got := Key(parts...); got != want {
			t.Fatalf("Key(%d parts) = %s, reference %s", len(parts), got, want)
		}
		if got := KeyStrings(strs...); got != want {
			t.Fatalf("KeyStrings(%d parts) = %s, reference %s", len(parts), got, want)
		}
	}
	if raceEnabled {
		return // the race detector makes sync.Pool drop a share of its Puts
	}
	strs := []string{"obj-list", KeyStrings("ir"), "dic=true", string(make([]byte, 300))}
	parts := [][]byte{[]byte("ir"), []byte("module"), make([]byte, 10000)}
	if a := testing.AllocsPerRun(100, func() { KeyStrings(strs...) }); a != 1 {
		t.Errorf("KeyStrings: %.1f allocations per key, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { Key(parts...) }); a != 1 {
		t.Errorf("Key: %.1f allocations per key, want 1", a)
	}
}

// TestKeyAllocs: a caller's part conversions do not escape through Key, so
// an IR key over a string module name, as Phase 1 spells it, allocates only
// the key, and a build ID over a fixed header array only its own.
func TestKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	name, data := "module_with_a_long_name.cc", make([]byte, 10000)
	if a := testing.AllocsPerRun(100, func() { Key([]byte("ir"), []byte(name), data) }); a != 1 {
		t.Errorf("Key over converted strings: %.1f allocations, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		var hdr [32]byte
		binary.LittleEndian.PutUint64(hdr[:], uint64(len(data)))
		Key(hdr[:], data)
	}); a != 1 {
		t.Errorf("Key over a header array: %.1f allocations, want 1", a)
	}
}
