package fleetprof

import (
	"errors"
	"fmt"
	"time"

	"propeller/internal/par"
	"propeller/internal/profile"
)

// Modeled cost constants for the collection/ingestion tier. Same style as
// the core phase model: small constants that make relative comparisons
// (shard scaling, loss overhead) meaningful without real network time.
const (
	// SendLatencySeconds is the per-delivery-attempt network latency.
	SendLatencySeconds = 1e-3
	// SendPerByteSeconds models payload serialization + wire time.
	SendPerByteSeconds = 2e-9
	// RetryTimeoutSeconds is the client timeout charged for each lost
	// delivery before it retries.
	RetryTimeoutSeconds = 10e-3
	// IngestBatchBaseSeconds is the per-batch decode/validate overhead.
	IngestBatchBaseSeconds = 200e-6
	// IngestPerRecordSeconds is the per-LBR-record aggregation cost.
	IngestPerRecordSeconds = 2e-7
)

// Transport is the in-process fleet network model. Loss and duplication
// are decided by a deterministic hash of (seed, host, seq, attempt) — not
// by a shared RNG — so the fault pattern a batch sees is a pure function
// of its identity, independent of goroutine scheduling and of how many
// queue-full retries the client needed. That keeps every modeled quantity
// bit-reproducible under -race at any worker count.
type Transport struct {
	// LossRate in [0,1) is the probability a delivery attempt is lost in
	// transit (the client times out and resends).
	LossRate float64
	// DupRate in [0,1) is the probability the network delivers an extra
	// copy of a batch (e.g. a timeout-resend crossing a late ack).
	DupRate float64
	// Seed perturbs the fault pattern; same seed, same faults.
	Seed uint64
	// MaxLostAttempts caps consecutive modeled losses per batch
	// (default 16) so pathological rates still terminate.
	MaxLostAttempts int
}

func (t Transport) maxLost() int {
	if t.MaxLostAttempts < 1 {
		return 16
	}
	return t.MaxLostAttempts
}

// plan returns the deterministic fault plan for one batch: how many
// delivery attempts are lost before one succeeds, and whether the network
// duplicates the successful delivery.
func (t Transport) plan(host, seq int) (lost int, dup bool) {
	if t.LossRate > 0 {
		for lost < t.maxLost() {
			h := splitmix64(t.Seed ^ uint64(host)<<40 ^ uint64(uint32(seq))<<8 ^ uint64(lost))
			if hashFrac(h) >= t.LossRate {
				break
			}
			lost++
		}
	}
	if t.DupRate > 0 {
		h := splitmix64(t.Seed ^ 0xd1b54a32d192ed03 ^ uint64(host)<<40 ^ uint64(uint32(seq))<<8)
		dup = hashFrac(h) < t.DupRate
	}
	return lost, dup
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashFrac maps a hash to [0,1) with 53 uniform bits.
func hashFrac(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// SampleSource supplies one host's sample stream to its collector's Run:
// stored samples (ProfileSource), or anything else that drives emit. (A
// live simulation instead pushes into the host's Feed from its sample
// callback.) Record slices passed to emit are only read during the call;
// the collector encodes what it batches.
type SampleSource interface {
	// Header returns the stream's profile metadata, known before any
	// sample; its Samples count is ignored.
	Header() profile.Header
	// Samples drives the stream, calling emit once per sample in order.
	// An error from emit must abort the stream and be returned.
	Samples(emit func(profile.Sample) error) error
}

// ProfileSource adapts an in-memory profile to SampleSource.
type ProfileSource struct {
	P *profile.Profile
}

// Header implements SampleSource.
func (ps ProfileSource) Header() profile.Header {
	return profile.Header{Binary: ps.P.Binary, BuildID: ps.P.BuildID, Period: ps.P.Period}
}

// Samples implements SampleSource.
func (ps ProfileSource) Samples(emit func(profile.Sample) error) error {
	for _, s := range ps.P.Samples {
		if err := emit(s); err != nil {
			return err
		}
	}
	return nil
}

// Collector is one simulated production host shipping its LBR samples to
// the ingestion service in sequenced batches.
type Collector struct {
	// Host is this collector's fleet-unique identity; with Seq it forms
	// the idempotency key on every batch.
	Host int
	// Source supplies the host's sample stream to Run (Open does not read
	// it). Batch identity ((host, seq) over consecutive BatchSamples-sized
	// windows of the stream), the transport fault plan, and every modeled
	// stat depend only on the stream, so the service's merged profile is
	// byte-identical whether a stream comes from a Source or is pushed
	// into a Feed while a simulation runs.
	Source SampleSource
	// BatchSamples is the number of samples per batch (default 64).
	BatchSamples int
	// Backoff is the initial real sleep after a queue-full reject
	// (default 100µs, doubling up to 100× initial).
	Backoff time.Duration
	// MaxAttempts bounds total Submit attempts per batch (default 16). A
	// shard that stays full for the whole budget drops the batch — counted
	// in CollectorStats.Dropped, surfaced as IngestStats.DroppedBatches —
	// instead of wedging the host forever behind one sick shard.
	MaxAttempts int
	// AdaptAfterDrops is the sustained-backpressure threshold for
	// sampling-rate adaptation (default 2): once that many consecutive
	// batches have been dropped on a full queue, the collector doubles its
	// downsampling — shipping every 2nd, then 4th, ... sample — so a
	// congested ingestion tier receives a thinner, still-unbiased stream
	// instead of a firehose it keeps rejecting. A successfully delivered
	// batch resets the consecutive-drop counter (but not the rate: the
	// fleet operator resets rates by redeploying collectors).
	AdaptAfterDrops int
}

// CollectorStats is one host's client-side accounting.
type CollectorStats struct {
	Sent    int64 // batches accepted into a queue at least once
	Retried int64 // resends: lost-delivery retries + queue-full retries
	Lost    int64 // delivery attempts lost in transit (modeled)
	Dup     int64 // extra copies the network delivered
	// Dropped counts batches abandoned after the MaxAttempts budget: the
	// bounded-retry contract that keeps a wedged shard from hanging a host.
	Dropped int64
	// Downsample is the final sampling-rate divisor after adaptation
	// (1 = full rate; 2/4/8... after sustained queue-full drops).
	Downsample int64
	// StallSeconds is real time spent sleeping in queue-full backoff.
	StallSeconds float64
	// ModeledSendSeconds is this host's deterministic send-path time:
	// per-attempt latency + wire time, plus a timeout charge per lost
	// attempt. Queue-full retries do not contribute (they are real
	// scheduling noise, not part of the reproducible model).
	ModeledSendSeconds float64
}

func (c *Collector) batchSamples() int {
	if c.BatchSamples < 1 {
		return 64
	}
	return c.BatchSamples
}

func (c *Collector) backoff() time.Duration {
	if c.Backoff <= 0 {
		return 100 * time.Microsecond
	}
	return c.Backoff
}

func (c *Collector) maxAttempts() int {
	if c.MaxAttempts < 1 {
		return 16
	}
	return c.MaxAttempts
}

func (c *Collector) adaptAfterDrops() int {
	if c.AdaptAfterDrops < 1 {
		return 2
	}
	return c.AdaptAfterDrops
}

// Run ships the host's sample stream through the transport to the
// service in sequenced batches, honoring backpressure: samples are
// consumed as Source produces them, so batches leave while a live host's
// simulation is still running. Each batch gets a bounded delivery-attempt
// budget: a batch the queue keeps rejecting is dropped (counted, never
// silently) instead of hanging the host, and sustained drops double the
// collector's downsampling so the stream thins to what the service can
// absorb. Run is Open, Source's samples fed to Add, and Close.
func (c *Collector) Run(t Transport, svc *Service) (CollectorStats, error) {
	src := c.Source
	if src == nil {
		return CollectorStats{Downsample: 1}, fmt.Errorf("fleetprof: collector host %d has no sample source", c.Host)
	}
	f := c.Open(t, svc, src.Header())
	if err := src.Samples(f.Add); err != nil {
		return f.st, err
	}
	return f.Close()
}

// Open starts the collector's feed of a stream with header hdr (its
// Samples count is ignored). Source is not read.
func (c *Collector) Open(t Transport, svc *Service, hdr profile.Header) *Feed {
	bs := c.batchSamples()
	return &Feed{
		c: c, t: t, svc: svc, st: CollectorStats{Downsample: 1},
		hdr: hdr,
		bs:  bs,
		// Chained records take two to three bytes; a window of larger ones
		// grows the body once for the whole stream.
		body: make([]byte, 0, bs*(1+3*profile.LBRDepth)),
	}
}

// Feed is a collector's push-style intake: the producer of the host's
// samples calls Add for each, in order, and Close at the end. One
// producer can drive several hosts' feeds this way — fleet collection
// feeds every host from one simulation — and each host's batches, fault
// plan and stats are what Run of the same stream gives. A Feed is not
// safe for concurrent use.
//
// It holds the current window's kept samples already encoded, in a reused
// body buffer, and a reused header buffer, so the batch wire path
// allocates nothing apart from the payload itself, which must be owned by
// the in-flight batch.
type Feed struct {
	c   *Collector
	t   Transport
	svc *Service
	st  CollectorStats
	hdr profile.Header
	bs  int

	n    int    // samples of the current window taken so far
	kept int    // of those, the ones the window's downsampling keeps
	body []byte // the kept samples' wire encoding
	head []byte // the batch header's wire encoding

	seq         int
	consecDrops int
}

// Stats is the host's accounting so far: final after Close, and what a
// failed stream leaves when it is abandoned without one.
func (f *Feed) Stats() CollectorStats { return f.st }

// Close ships the final partial window — an empty stream still ships one
// empty batch, so the host's presence registers with the service — and
// returns the host's stats.
func (f *Feed) Close() (CollectorStats, error) {
	if f.n > 0 || f.seq == 0 {
		if err := f.ship(); err != nil {
			return f.st, err
		}
	}
	return f.st, nil
}

// Add takes the stream's next sample and ships the window when it is
// full. Under downsampling by d the window keeps its samples 0, d, 2d, …
// — the unbiased sampling-rate adaptation a collector applies under
// sustained backpressure — and a kept sample is encoded into the batch
// body at once, so its records are only read during Add.
func (f *Feed) Add(s profile.Sample) error {
	if int64(f.n)%f.st.Downsample == 0 {
		f.body = profile.AppendSample(f.body, s)
		f.kept++
	}
	if f.n++; f.n == f.bs {
		return f.ship()
	}
	return nil
}

// ship puts the header in front of the current window's encoded samples,
// delivers them as batch (host, seq) and resets the window; seq advances
// even for dropped batches.
func (f *Feed) ship() error {
	c, st := f.c, &f.st
	f.hdr.Samples = uint64(f.kept)
	f.head = profile.AppendHeader(f.head[:0], f.hdr)
	// The payload crosses into the service's queues and is decoded
	// asynchronously, so it must own its bytes: one exact-size buffer, the
	// only per-batch allocation on the wire path.
	payload := append(append(make([]byte, 0, len(f.head)+len(f.body)), f.head...), f.body...)
	seq := f.seq
	f.seq++
	f.n, f.kept, f.body = 0, 0, f.body[:0]

	lost, dup := f.t.plan(c.Host, seq)
	st.Lost += int64(lost)
	st.Retried += int64(lost)
	attemptCost := SendLatencySeconds + float64(len(payload))*SendPerByteSeconds
	st.ModeledSendSeconds += float64(lost+1)*attemptCost + float64(lost)*RetryTimeoutSeconds

	dropped, err := c.deliver(f.svc, Batch{Host: c.Host, Seq: seq, Payload: payload}, st)
	if err != nil {
		return err
	}
	if dropped {
		st.Dropped++
		f.consecDrops++
		if f.consecDrops >= c.adaptAfterDrops() {
			st.Downsample *= 2
			f.consecDrops = 0
		}
		return nil
	}
	f.consecDrops = 0
	st.Sent++
	if dup {
		st.Dup++
		// A network-duplicated copy: best-effort, never retried. If
		// the queue is full the duplicate simply vanishes — the
		// original already made it in.
		_ = f.svc.Submit(Batch{Host: c.Host, Seq: seq, Payload: payload})
	}
	return nil
}

// deliver submits one batch with exponential backoff on queue-full, under
// a hard attempt budget. It reports dropped=true when the budget ran out
// with the queue still full.
func (c *Collector) deliver(svc *Service, b Batch, st *CollectorStats) (dropped bool, err error) {
	backoff := c.backoff()
	maxBackoff := 100 * c.backoff()
	for attempt := 1; ; attempt++ {
		err := svc.Submit(b)
		if err == nil {
			return false, nil
		}
		if !errors.Is(err, ErrQueueFull) {
			return false, err
		}
		if attempt >= c.maxAttempts() {
			return true, nil
		}
		st.Retried++
		st.StallSeconds += backoff.Seconds()
		time.Sleep(backoff)
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// RunFleet runs every collector at once against the service (par.Do with
// one goroutine per collector), folds the client-side stats into the
// service's, and drains the queues — also when collectors failed. The
// returned stats are final. The error is the lowest-index collector's,
// so failures are deterministic too.
func RunFleet(collectors []*Collector, t Transport, svc *Service) (IngestStats, error) {
	stats := make([]CollectorStats, len(collectors))
	err := par.Do(len(collectors), len(collectors), func(i int) error {
		var err error
		stats[i], err = collectors[i].Run(t, svc)
		return err
	})
	return svc.Finish(stats), err
}

// Finish folds each host's client-side stats into the service's, drains
// the queues and returns the final stats: the end of RunFleet, and of any
// caller that drives its hosts' Feeds itself. Stats fold in the order
// given (host order), not completion order: the aggregate sums floats
// (ModeledSendSeconds), and float addition is order-dependent in the last
// ulp — folding as hosts finish would make the modeled time irreproducible
// across runs.
func (s *Service) Finish(hosts []CollectorStats) IngestStats {
	for _, cs := range hosts {
		s.foldClient(cs)
	}
	s.Drain()
	return s.Stats()
}

// ModeledMakespan is the modeled wall time of the fleet run at the given
// shard count: the slowest host's send path, then the ingest work divided
// across shards — floored by the single largest batch, which no amount of
// sharding subdivides. Monotone non-increasing in shards by construction.
func (st IngestStats) ModeledMakespan(shards int) float64 {
	if shards < 1 {
		shards = 1
	}
	ingest := st.ModeledIngestSeconds / float64(shards)
	if st.MaxBatchIngestSeconds > ingest {
		ingest = st.MaxBatchIngestSeconds
	}
	return st.MaxHostSendSeconds + ingest
}
