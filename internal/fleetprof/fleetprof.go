// Package fleetprof is the fleet-scale profile collection tier of §2/§3.1:
// the paper's premise is that LBR samples are gathered continuously on
// production machines across a warehouse fleet and shipped to a central
// aggregation step that feeds the whole-program analysis. This package
// simulates that tier end to end, production-shaped:
//
//   - N collector hosts ship their LBR samples in batches (the payload
//     reuses the profile wire format) over an in-process Transport that
//     models loss, latency and duplication deterministically;
//   - a sharded ingestion Service receives batches through bounded queues
//     with backpressure, deduplicates by (host, sequence) idempotency
//     keys, and rejects batches whose build ID does not match the serving
//     binary;
//   - shards merge with the same deterministic commutative discipline the
//     parallel WPA established: the merged profile is bit-identical at
//     every shard/worker count and under injected faults;
//   - an admission Gate (minimum samples + hot-function coverage) tells
//     Phase 3 when the fleet profile is ready for analysis.
package fleetprof

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"propeller/internal/par"
	"propeller/internal/profile"
)

// ErrQueueFull is the backpressure signal: the target shard's bounded
// queue is at capacity and the client should back off and retry.
var ErrQueueFull = errors.New("fleetprof: ingest queue full")

// Batch is one shipment of LBR samples from a collector host. Payload is
// a serialized profile.Profile carrying the host's sample slice plus the
// header (binary, build ID, period) the service validates. (Host, Seq) is
// the idempotency key: redelivered or duplicated batches are accepted at
// most once.
type Batch struct {
	Host    int
	Seq     int
	Payload []byte
}

type batchKey struct{ host, seq int }

// storedBatch is an accepted, decoded batch retained until merge.
type storedBatch struct {
	header  profile.Header
	samples []profile.Sample
	// rejected marks a tombstone: the key arrived but failed validation.
	// Redeliveries of a tombstoned key count as duplicates, not as fresh
	// rejections.
	rejected bool
}

// ServiceConfig sizes the ingestion service.
type ServiceConfig struct {
	// Shards is the number of independent ingest queues (default 1).
	// Batches route to shards by a deterministic hash of their
	// idempotency key, so a redelivery always lands on the same shard.
	Shards int

	// WorkersPerShard is the decode/validate parallelism behind each
	// queue (default 1).
	WorkersPerShard int

	// QueueDepth bounds each shard's queue (default 64). A full queue
	// rejects the submit with ErrQueueFull — the backpressure that keeps
	// a slow analysis tier from buffering the whole fleet's output.
	QueueDepth int

	// BuildID is the content hash of the serving binary. When non-empty,
	// a batch recording a different (or no) build ID is rejected and
	// counted — the build-ID matching of Google's propeller tooling.
	BuildID string
}

// ingestDelay is a real per-batch processing delay in the workers: zero
// but in the tests that force queue backpressure deterministically.
var ingestDelay time.Duration

func (c ServiceConfig) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

func (c ServiceConfig) workers() int {
	if c.WorkersPerShard < 1 {
		return 1
	}
	return c.WorkersPerShard
}

func (c ServiceConfig) queueDepth() int {
	if c.QueueDepth < 1 {
		return 64
	}
	return c.QueueDepth
}

type shard struct {
	ch        chan Batch
	highWater atomic.Int64

	mu      sync.Mutex
	batches map[batchKey]*storedBatch
}

// Service is the sharded ingestion endpoint.
type Service struct {
	cfg     ServiceConfig
	shards  []*shard
	workers *par.Job[error] // every shard's workers, one par.Do

	accepted        atomic.Int64
	acceptedSamples atomic.Int64
	acceptedRecords atomic.Int64
	rejectedBuildID atomic.Int64
	corrupt         atomic.Int64
	duplicates      atomic.Int64
	queueFull       atomic.Int64

	// Modeled ingest cost counts only accepted batches, so it is
	// identical at every shard/worker count and under every injected
	// fault pattern (duplicates and rejects never contribute). Only the
	// integer record maximum is tracked here; the float cost is derived
	// from the accepted totals in Stats(), because summing per-batch
	// float costs in worker-completion order would make the modeled
	// time irreproducible in the last ulp.
	maxBatchRecords atomic.Int64

	clientMu sync.Mutex
	client   IngestStats // the client-side fields alone, folded in by Finish

	drained bool
}

// NewService starts the shard workers and returns the ready service: one
// job whose par.Do runs WorkersPerShard workers on each shard's queue.
func NewService(cfg ServiceConfig) *Service {
	s := &Service{cfg: cfg}
	for i := 0; i < cfg.shards(); i++ {
		s.shards = append(s.shards, &shard{
			ch:      make(chan Batch, cfg.queueDepth()),
			batches: make(map[batchKey]*storedBatch),
		})
	}
	n, per := len(s.shards)*cfg.workers(), cfg.workers()
	s.workers = par.Start(func() error {
		return par.Do(n, n, func(i int) error {
			sh := s.shards[i/per]
			for b := range sh.ch {
				s.ingest(sh, b)
			}
			return nil
		})
	})
	return s
}

// shardOf routes an idempotency key to its shard: deterministic, so every
// redelivery of a key lands where its dedup record lives.
func shardOf(host, seq, shards int) int {
	h := splitmix64(uint64(host)<<32 ^ uint64(uint32(seq)) ^ 0x9e3779b97f4a7c15)
	return int(h % uint64(shards))
}

// Submit offers a batch to its shard queue. It never blocks: a full queue
// returns ErrQueueFull immediately so the client's retry/backoff loop —
// not an unbounded buffer — absorbs the overload.
func (s *Service) Submit(b Batch) error {
	sh := s.shards[shardOf(b.Host, b.Seq, len(s.shards))]
	select {
	case sh.ch <- b:
		if depth := int64(len(sh.ch)); depth > sh.highWater.Load() {
			sh.highWater.Store(depth) // racy max: close enough for a high-water stat
		}
		return nil
	default:
		s.queueFull.Add(1)
		return ErrQueueFull
	}
}

// ingest validates, deduplicates and stores one batch.
func (s *Service) ingest(sh *shard, b Batch) {
	if ingestDelay > 0 {
		time.Sleep(ingestDelay)
	}
	key := batchKey{b.Host, b.Seq}
	sh.mu.Lock()
	if _, dup := sh.batches[key]; dup {
		sh.mu.Unlock()
		s.duplicates.Add(1)
		return
	}
	// Reserve the key before decoding so a concurrent redelivery on
	// another worker of this shard cannot double-store it.
	reserved := &storedBatch{rejected: true}
	sh.batches[key] = reserved
	sh.mu.Unlock()

	p, err := profile.ReadBytes(b.Payload)
	if err != nil {
		s.corrupt.Add(1)
		return
	}
	if s.cfg.BuildID != "" && p.BuildID != s.cfg.BuildID {
		s.rejectedBuildID.Add(1)
		return
	}
	records := 0
	for _, smp := range p.Samples {
		records += len(smp.Records)
	}
	sh.mu.Lock()
	sh.batches[key] = &storedBatch{
		header:  profile.Header{Binary: p.Binary, BuildID: p.BuildID, Period: p.Period},
		samples: p.Samples,
	}
	sh.mu.Unlock()
	s.accepted.Add(1)
	s.acceptedSamples.Add(int64(len(p.Samples)))
	s.acceptedRecords.Add(int64(records))

	for {
		cur := s.maxBatchRecords.Load()
		if int64(records) <= cur || s.maxBatchRecords.CompareAndSwap(cur, int64(records)) {
			break
		}
	}
}

// Drain closes the shard queues and joins the workers once every in-flight
// batch is processed. After Drain the merged profile is final; Submit must
// not be called again.
func (s *Service) Drain() {
	if s.drained {
		return
	}
	s.drained = true
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.workers.Join()
}

// MergedProfile merges every accepted batch into one profile. The merge
// is canonical — hosts ascending, sequence ascending, samples in batch
// order — so the bytes are identical no matter how batches were sharded,
// reordered, duplicated or retried on their way in. Exactly the
// commutative-merge discipline the parallel WPA uses for its shards.
func (s *Service) MergedProfile() (*profile.Profile, error) {
	type entry struct {
		key batchKey
		b   *storedBatch
	}
	var entries []entry
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k, b := range sh.batches {
			if !b.rejected {
				entries = append(entries, entry{k, b})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key.host != entries[j].key.host {
			return entries[i].key.host < entries[j].key.host
		}
		return entries[i].key.seq < entries[j].key.seq
	})
	out := &profile.Profile{}
	for _, e := range entries {
		h := e.b.header
		if out.Binary == "" {
			out.Binary = h.Binary
		}
		if out.BuildID == "" {
			out.BuildID = h.BuildID
		} else if h.BuildID != "" && h.BuildID != out.BuildID {
			return nil, fmt.Errorf("fleetprof: build ID mismatch among accepted batches")
		}
		if out.Period == 0 {
			out.Period = h.Period
		} else if h.Period != 0 && h.Period != out.Period {
			return nil, fmt.Errorf("fleetprof: sampling period mismatch among accepted batches (%d vs %d)", out.Period, h.Period)
		}
		out.Samples = append(out.Samples, e.b.samples...)
	}
	return out, nil
}

// IngestStats is the service's observability surface: server-side
// accept/reject/duplicate accounting plus the client-side aggregates
// Finish folds in, and the deterministic modeled-time quantities the
// scaling sweep derives its makespan from.
type IngestStats struct {
	AcceptedBatches  int64 `json:"acceptedBatches"`
	AcceptedSamples  int64 `json:"acceptedSamples"`
	AcceptedRecords  int64 `json:"acceptedRecords"`
	RejectedBuildID  int64 `json:"rejectedBuildID"`
	CorruptBatches   int64 `json:"corruptBatches"`
	DuplicateBatches int64 `json:"duplicateBatches"`
	QueueFullRejects int64 `json:"queueFullRejects"`
	QueueHighWater   int   `json:"queueHighWater"`

	// Client-side aggregates (folded in by Finish).
	SentBatches    int64 `json:"sentBatches"`
	RetriedSends   int64 `json:"retriedSends"`
	LostDeliveries int64 `json:"lostDeliveries"`
	DupDeliveries  int64 `json:"dupDeliveries"`
	// DroppedBatches counts batches abandoned after a collector's bounded
	// attempt budget ran out against a persistently full shard queue.
	DroppedBatches int64 `json:"droppedBatches"`
	// MaxDownsample is the largest sampling-rate divisor any collector
	// adapted to under sustained backpressure (1 = nobody throttled).
	MaxDownsample int64   `json:"maxDownsample"`
	StallSeconds  float64 `json:"stallSeconds"`

	// Modeled time (deterministic: unaffected by real scheduling).
	ModeledSendSeconds    float64 `json:"modeledSendSeconds"`    // summed over hosts
	MaxHostSendSeconds    float64 `json:"maxHostSendSeconds"`    // critical client path
	ModeledIngestSeconds  float64 `json:"modeledIngestSeconds"`  // summed over accepted batches
	MaxBatchIngestSeconds float64 `json:"maxBatchIngestSeconds"` // largest single batch

	// HostBatches and HostSamples are per-host acceptance coverage.
	HostBatches map[int]int64 `json:"hostBatches"`
	HostSamples map[int]int64 `json:"hostSamples"`
}

// Stats snapshots the service counters. Call after Drain for final
// numbers; mid-run snapshots are consistent but momentary.
func (s *Service) Stats() IngestStats {
	s.clientMu.Lock()
	st := s.client
	s.clientMu.Unlock()
	st.AcceptedBatches = s.accepted.Load()
	st.AcceptedSamples = s.acceptedSamples.Load()
	st.AcceptedRecords = s.acceptedRecords.Load()
	st.RejectedBuildID = s.rejectedBuildID.Load()
	st.CorruptBatches = s.corrupt.Load()
	st.DuplicateBatches = s.duplicates.Load()
	st.QueueFullRejects = s.queueFull.Load()
	st.HostBatches, st.HostSamples = map[int]int64{}, map[int]int64{}
	for _, sh := range s.shards {
		if hw := int(sh.highWater.Load()); hw > st.QueueHighWater {
			st.QueueHighWater = hw
		}
		sh.mu.Lock()
		for k, b := range sh.batches {
			if !b.rejected {
				st.HostBatches[k.host]++
				st.HostSamples[k.host] += int64(len(b.samples))
			}
		}
		sh.mu.Unlock()
	}
	// Derived from order-independent integer totals: sum over accepted
	// batches of (base + records*per) == accepted*base + totalRecords*per.
	st.ModeledIngestSeconds = float64(st.AcceptedBatches)*IngestBatchBaseSeconds +
		float64(st.AcceptedRecords)*IngestPerRecordSeconds
	if recs := s.maxBatchRecords.Load(); st.AcceptedBatches > 0 {
		st.MaxBatchIngestSeconds = IngestBatchBaseSeconds + float64(recs)*IngestPerRecordSeconds
	}
	return st
}

// foldClient merges one collector's stats into the service aggregate.
func (s *Service) foldClient(cs CollectorStats) {
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	c := &s.client
	c.SentBatches += cs.Sent
	c.RetriedSends += cs.Retried
	c.LostDeliveries += cs.Lost
	c.DupDeliveries += cs.Dup
	c.DroppedBatches += cs.Dropped
	c.MaxDownsample = max(c.MaxDownsample, cs.Downsample)
	c.StallSeconds += cs.StallSeconds
	c.ModeledSendSeconds += cs.ModeledSendSeconds
	c.MaxHostSendSeconds = max(c.MaxHostSendSeconds, cs.ModeledSendSeconds)
}

// Statusz writes the /statusz-style plain-text snapshot.
func (s *Service) Statusz(w io.Writer) {
	fmt.Fprintf(w, "fleetprof ingestion service: %d shards x %d workers, queue depth %d\n",
		s.cfg.shards(), s.cfg.workers(), s.cfg.queueDepth())
	if s.cfg.BuildID != "" {
		fmt.Fprintf(w, "serving build ID: %.16s..\n", s.cfg.BuildID)
	}
	s.Stats().WriteText(w)
}

// WriteText renders the stats in the same plain-text form Statusz uses,
// for callers that only kept the stats (e.g. after the service is gone).
func (st IngestStats) WriteText(w io.Writer) {
	fmt.Fprintf(w, "batches: accepted=%d duplicate=%d rejected-buildid=%d corrupt=%d\n",
		st.AcceptedBatches, st.DuplicateBatches, st.RejectedBuildID, st.CorruptBatches)
	fmt.Fprintf(w, "samples: %d (%d records)\n", st.AcceptedSamples, st.AcceptedRecords)
	fmt.Fprintf(w, "backpressure: queue-full rejects=%d high-water=%d client stall=%.3fs\n",
		st.QueueFullRejects, st.QueueHighWater, st.StallSeconds)
	fmt.Fprintf(w, "client: sent=%d retried=%d lost=%d dup-delivered=%d dropped=%d max-downsample=%dx\n",
		st.SentBatches, st.RetriedSends, st.LostDeliveries, st.DupDeliveries,
		st.DroppedBatches, st.MaxDownsample)
	hosts := make([]int, 0, len(st.HostBatches))
	for h := range st.HostBatches {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	for _, h := range hosts {
		fmt.Fprintf(w, "  host %-4d: %d batches, %d samples\n", h, st.HostBatches[h], st.HostSamples[h])
	}
}
