package buildsys

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestTieredGetFallsThroughAndChargesFetch(t *testing.T) {
	remote := NewRemote()
	c := NewTieredCache(4, remote)
	c.Put("a", []byte("aaaa"))
	c.Put("b", []byte("bbbb")) // evicts a locally; both live remotely

	if remote.Len() != 2 {
		t.Fatalf("write-through stored %d remote artifacts, want 2", remote.Len())
	}
	data, cost, ok := c.GetCost("a")
	if !ok || !bytes.Equal(data, []byte("aaaa")) {
		t.Fatalf("remote fallthrough lost the artifact: %q ok=%v", data, ok)
	}
	want := remote.FetchCost(4)
	if cost != want {
		t.Errorf("fetch cost = %v, want FetchBase + 4*FetchPerByte = %v", cost, want)
	}
	if want <= RemoteFetchBase {
		t.Errorf("per-byte latency not charged: %v", want)
	}
	st := c.Stats()
	if st.Hits != 1 || st.RemoteFetches != 1 || st.RemoteBytes != 4 {
		t.Errorf("remote hit accounting: %+v", st)
	}
	// The fetch re-admitted "a" locally (evicting "b"): the next Get is a
	// free local hit.
	if _, cost, ok := c.GetCost("a"); !ok || cost != 0 {
		t.Errorf("re-admitted artifact not a free local hit: cost=%v ok=%v", cost, ok)
	}
	if c.Len() != 1 {
		t.Errorf("re-admission did not respect the local budget: %d resident", c.Len())
	}
	if !c.Contains("b") {
		t.Error("evicted artifact no longer reachable through the remote tier")
	}
}

func TestTieredMissesBothTiers(t *testing.T) {
	c := NewTieredCache(1<<20, NewRemote())
	if data, cost, ok := c.GetCost("nothing"); ok || cost != 0 || data != nil {
		t.Errorf("miss returned %q cost=%v ok=%v", data, cost, ok)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.RemoteFetches != 0 {
		t.Errorf("both-tier miss accounting: %+v", st)
	}
}

func TestTieredSharedRemoteAcrossLocalTiers(t *testing.T) {
	// Two builds on different machines share the fleet cache: what one
	// produces, the other fetches (the §2.1 economics).
	remote := NewRemote()
	producer := NewTieredCache(1<<20, remote)
	consumer := NewTieredCache(1<<20, remote)
	key := KeyStrings("obj", "shared")
	producer.Put(key, []byte("artifact"))

	data, cost, ok := consumer.GetCost(key)
	if !ok || string(data) != "artifact" {
		t.Fatalf("consumer missed the shared artifact: %q ok=%v", data, ok)
	}
	if cost != remote.FetchCost(int64(len("artifact"))) {
		t.Errorf("cross-machine fetch cost = %v", cost)
	}
	if st := consumer.Stats(); st.RemoteFetches != 1 {
		t.Errorf("consumer stats: %+v", st)
	}
	if remote.Fetches() != 1 {
		t.Errorf("remote served %d fetches, want 1", remote.Fetches())
	}
}

func TestRemoteLatencyOverride(t *testing.T) {
	remote := NewRemote()
	remote.FetchBase = 2
	remote.FetchPerByte = 0.5
	if got := remote.FetchCost(10); got != 7 {
		t.Errorf("FetchCost(10) = %v, want 7", got)
	}
	if NewRemote().FetchCost(0) != RemoteFetchBase {
		t.Error("default base latency not applied")
	}
}

// TestTieredCallerBufferIsolation: the buffer Put takes over is the one
// the remote tier keeps and a remote hit re-admits locally; what GetCost
// and Get hand out are copies.
func TestTieredCallerBufferIsolation(t *testing.T) {
	remote := NewRemote()
	c := NewTieredCache(4, remote)
	src := []byte("orig")
	c.Put("k", src)
	c.Put("evictor", []byte("evic")) // push k out of the local tier
	got, _, ok := c.GetCost("k")     // served by the remote tier
	if !ok || string(got) != "orig" {
		t.Fatalf("remote tier lost the artifact: %q", got)
	}
	if view, _, ok := c.ViewCost("k"); !ok || &view[0] != &src[0] {
		t.Errorf("remote tier or re-admission copied the buffer Put took over: %q ok=%v", view, ok)
	}
	got[0] = 'Y' // mutate the fetched copy
	again, _ := c.Get("k")
	if string(again) != "orig" {
		t.Errorf("Get aliased tier-owned memory: %q", again)
	}
}

// TestTieredConcurrentChurn races Puts, local hits, evictions, and
// remote fallthrough fetches; run under -race this is the
// concurrency-cleanliness gate for the two-tier path.
func TestTieredConcurrentChurn(t *testing.T) {
	const budget = 256
	remote := NewRemote()
	c := NewTieredCache(budget, remote)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				key := KeyStrings("t", fmt.Sprintf("%d-%d", w, i%20))
				c.Put(key, []byte(key[:32]))
				if data, _, ok := c.GetCost(key); !ok || len(data) != 32 {
					t.Errorf("lost %s under churn", key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Sweep every key written: far more than fit locally, so the sweep
	// must lean on the remote tier and nothing may have been lost.
	for w := 0; w < 8; w++ {
		for i := 0; i < 20; i++ {
			key := KeyStrings("t", fmt.Sprintf("%d-%d", w, i))
			if data, ok := c.Get(key); !ok || string(data) != key[:32] {
				t.Fatalf("artifact %s lost after churn", key)
			}
		}
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Errorf("local tier over budget: %d > %d", st.Bytes, budget)
	}
	if st.Evictions == 0 || st.RemoteFetches == 0 {
		t.Errorf("churn exercised no tier traffic: %+v", st)
	}
	if remote.Len() != 8*20 {
		t.Errorf("remote holds %d artifacts, want %d distinct keys", remote.Len(), 8*20)
	}
}
