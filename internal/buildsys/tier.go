package buildsys

import "sync"

// Remote-tier latency model defaults (§2.1): fetching an artifact from
// the shared action cache is an RPC round trip plus streaming the bytes
// at ~100MB/s effective cross-cluster bandwidth. Only the ratios against
// the codegen cost model matter for the reproduced figures: a warm
// remote fetch is orders of magnitude cheaper than recompiling the
// module, but it is not free.
const (
	// RemoteFetchBase is the modeled seconds per remote fetch (the RPC
	// round trip and cache-server lookup).
	RemoteFetchBase = 0.05

	// RemoteFetchPerByte is the modeled seconds per fetched byte.
	RemoteFetchPerByte = 1e-8
)

// Remote models the shared remote tier of the two-tier action cache: the
// fleet-wide content-addressed store every build's local tier writes
// through to. It never evicts (the modeled service has fleet-scale
// capacity) and every read out of it costs modeled fetch time, which the
// Cache folds into the requesting action's cost. It is safe for
// concurrent use and may back any number of local tiers at once — that
// sharing is exactly the §2.1 economics: a relink on one machine hits
// objects another machine's build produced.
type Remote struct {
	// FetchBase and FetchPerByte override the modeled fetch latency
	// (seconds, seconds per byte). NewRemote fills in the defaults.
	FetchBase    float64
	FetchPerByte float64

	mu      sync.RWMutex
	entries map[string][]byte
	bytes   int64
	fetches int64
}

// NewRemote returns an empty remote tier with the default latency model.
func NewRemote() *Remote {
	return &Remote{
		FetchBase:    RemoteFetchBase,
		FetchPerByte: RemoteFetchPerByte,
		entries:      map[string][]byte{},
	}
}

// FetchCost returns the modeled seconds to fetch n bytes from this tier.
func (r *Remote) FetchCost(n int64) float64 {
	return r.FetchBase + float64(n)*r.FetchPerByte
}

// Put stores data under key (seeding the tier directly, as a concurrently
// running build elsewhere on the fleet would). Like Cache.Put it takes
// ownership of data, which must never be written afterwards.
func (r *Remote) Put(key string, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.entries[key]; ok {
		r.bytes -= int64(len(old))
	}
	r.entries[key] = data
	r.bytes += int64(len(data))
}

// get returns the stored buffer (not a copy: Cache.ViewCost hands it out
// read-only, GetCost copies it) and counts the fetch.
func (r *Remote) get(key string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, ok := r.entries[key]
	if ok {
		r.fetches++
	}
	return data, ok
}

// Contains reports presence without counting a fetch.
func (r *Remote) Contains(key string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.entries[key]
	return ok
}

// Len returns the number of stored artifacts.
func (r *Remote) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Bytes returns the stored byte total.
func (r *Remote) Bytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.bytes
}

// Fetches returns how many gets this tier has served (across all local
// tiers backed by it).
func (r *Remote) Fetches() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.fetches
}
