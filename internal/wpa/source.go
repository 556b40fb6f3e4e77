// The analysis front door: Analyze, over one Source.
//
// The real tool takes its profiles as a list of inputs, each with a type
// (propeller_options.proto's InputProfile and ProfileType): how the samples
// arrive is a property of the input, not of the entry point. A Source is
// one such input, of four kinds, and Analyze asks every kind the same four
// questions in one fixed order — build ID, feed, residency, hot paths —
// then lays out what the feed aggregated:
//
//	kind      build ID           feed                           residency         hot paths      epoch cache
//	Samples   the profile's      in 512-sample batches          SizeBytes()       rebuilt        looked up, published
//	Wire      its header alone   decoded in 512-sample batches  one sample        must be given  looked up, published
//	During    the one given      the run's own batches          SizeBytes()       rebuilt        looked up, published
//	Prebuilt  none               none: it is the aggregate      what it recorded  must be given  neither
package wpa

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"propeller/internal/bbaddrmap"
	"propeller/internal/profile"
)

type sourceKind uint8

const (
	kindSamples sourceKind = iota + 1
	kindWire
	kindDuring
	kindPrebuilt
)

// Source is one profile for Analyze to read. Make one with Samples, Wire,
// During or Prebuilt; a Source is read once.
type Source struct {
	kind    sourceKind
	prof    *profile.Profile // Samples; During, once its run has returned
	r       io.Reader        // Wire
	dec     *profile.Decoder // Wire, once its header is read
	buildID string
	run     func(add func([]profile.Sample)) (*profile.Profile, error) // During
	agg     *Aggregate                                                 // Prebuilt
}

// Samples is a profile already in memory.
func Samples(prof *profile.Profile) Source { return Source{kind: kindSamples, prof: prof} }

// Wire is a serialized profile, decoded straight into the batches the
// shards fold and never materialized (§5.1's chunked reading): peak memory
// is the DCFG plus small sample batches. Only its header is read before
// the build-ID check, and nothing more on a warm epoch aggregate.
func Wire(r io.Reader) Source { return Source{kind: kindWire, r: r} }

// During is a profile still being collected from the binary whose build ID
// is buildID. run makes the profiling run, passing add each batch of the
// profile's samples once that batch will not be written again, and returns
// the complete profile. The batches are aggregated while run is still
// sampling, so when it returns only its last batch, the shard merge and the
// layout remain. On a warm epoch aggregate run is called with a nil add:
// the profiling run goes ahead alone. An error from run is returned as it
// is, after the workers have stopped.
func During(buildID string, run func(add func([]profile.Sample)) (*profile.Profile, error)) Source {
	return Source{kind: kindDuring, buildID: buildID, run: run}
}

// Prebuilt is an aggregate BuildAggregate made, possibly against an older
// map than the one analyzed — the warm-relink case, where an edited binary
// reuses the previous epoch's profile: functions that no longer exist are
// dropped and counts for vanished block IDs are ignored. It carries no
// build ID and no raw samples, and the epoch cache neither serves nor
// stores it.
func Prebuilt(agg *Aggregate) Source { return Source{kind: kindPrebuilt, agg: agg} }

// open answers the first question, the profile's build ID. A Wire source
// reads its header for it, and nothing more.
func (s *Source) open() error {
	switch s.kind {
	case kindSamples:
		s.buildID = s.prof.BuildID
	case kindWire:
		d, err := profile.NewDecoder(s.r)
		if err != nil {
			return fmt.Errorf("wpa: streaming profile: %w", err)
		}
		s.dec, s.buildID = d, d.Header.BuildID
	case kindDuring, kindPrebuilt:
	default:
		return errors.New("wpa: zero Source (make one with Samples, Wire, During or Prebuilt)")
	}
	return nil
}

// rawSamples reports whether the source holds the raw samples hot paths are
// rebuilt from; the position-independent aggregate cannot recover them.
func (s *Source) rawSamples() bool { return s.kind == kindSamples || s.kind == kindDuring }

// residency is the profile's resident size for Stats.ProfileBytes.
func (s *Source) residency() int64 {
	switch s.kind {
	case kindWire:
		return streamSampleBytes
	case kindPrebuilt:
		return s.agg.profileBytes
	}
	return s.prof.SizeBytes()
}

// streamSampleBytes is a Wire source's residency: one sample's worth.
const streamSampleBytes = 2 + profile.LBRDepth*16

// streamBatch samples per hand-off amortize it on the in-memory and decoded
// feeds.
const streamBatch = 512

// feed answers the second and third questions: it hands the source's
// samples to foldShards over lookup, merges the shards and stamps the
// result with the source's residency. In-memory samples go in the
// decoder's batches. The result does not depend on the cut: every
// contribution is a commutative sum.
func (c Config) feed(src *Source, lookup func() *bbaddrmap.Lookup) (*Aggregate, error) {
	shards, err := foldShards(c.workers(), lookup, func(add func(sampleBatch) sampleBatch) (err error) {
		addSamples := func(batch []profile.Sample) { add(sampleBatch{samples: batch}) }
		switch src.kind {
		case kindSamples:
			inBatches(src.prof.Samples, streamBatch, addSamples)
		case kindWire:
			err = decodeInto(add, src.dec)
		case kindDuring:
			src.prof, err = src.run(addSamples)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	agg := mergeShards(shards, lookup())
	agg.profileBytes = src.residency()
	return agg, nil
}

// inBatches hands add the samples n at a time, in order.
func inBatches(samples []profile.Sample, n int, add func([]profile.Sample)) {
	for ; len(samples) > 0; samples = samples[min(n, len(samples)):] {
		add(samples[:min(n, len(samples))])
	}
}

// decodeInto hands add the samples d decodes. The records of each batch
// share one flat block (each sample a capacity-clamped subslice).
func decodeInto(add func(sampleBatch) sampleBatch, d *profile.Decoder) error {
	var b sampleBatch
	var err error
	for err == nil {
		if b.samples == nil {
			b = sampleBatch{make([]profile.Sample, 0, streamBatch), make([]profile.Branch, 0, streamBatch*profile.LBRDepth)}
		}
		l := len(b.recs)
		if b.recs, err = d.Next(b.recs); err != nil {
			break
		}
		b.samples = append(b.samples, profile.Sample{Records: b.recs[l:len(b.recs):len(b.recs)]})
		if len(b.samples) == streamBatch {
			b = add(b)
			b.samples, b.recs = b.samples[:0], b.recs[:0]
		}
	}
	if err != io.EOF {
		return fmt.Errorf("wpa: streaming profile: %w", err)
	}
	add(b)
	return nil
}

// Analyze runs the whole-program analysis of one profile source against
// the BB address map loadMap returns. A caller that holds the map passes a
// closure returning it; a live run's loader decodes it beside the start of
// the run (with more than one worker, on the first aggregation worker).
//
// The door asks the source, in this order: its build ID, checked against
// cfg.BuildID before any cache lookup; its feed, through the incremental
// cache's epoch aggregate when one is configured (except for a Prebuilt
// source); its residency, for Stats.ProfileBytes; and, when the
// configuration clones paths and cfg.HotPaths is nil, its hot paths, which
// only a source of raw samples can rebuild — any other is refused rather
// than laid out without cloning. The result is bit-identical at every
// worker count, for every kind that carries the same samples, and — with
// the cache — to the uncached path.
func Analyze(loadMap func() (*bbaddrmap.Map, error), src Source, cfg Config) (*Result, error) {
	if err := src.open(); err != nil {
		return nil, err
	}
	if err := cfg.checkBuildID(src.buildID); err != nil {
		return nil, err
	}
	rebuildPaths := cfg.NeedsPaths() && cfg.HotPaths == nil
	if rebuildPaths && !src.rawSamples() {
		return nil, errors.New("wpa: path cloning needs Config.HotPaths: a wire or prebuilt source has no raw samples to rebuild hot paths from")
	}
	checkedMap := sync.OnceValues(func() (*bbaddrmap.Map, error) {
		m, err := loadMap()
		if err == nil {
			err = checkMap(m)
		}
		return m, err
	})
	// One lookup serves aggregation and path reconstruction; an analysis
	// that needs neither (a warm aggregate, no path cloning) never builds it.
	lookup := sync.OnceValue(func() *bbaddrmap.Lookup {
		m, err := checkedMap()
		if err != nil {
			// Nothing resolves against an empty table, so the shards fold
			// the feed into nothing; the error is reported after the feed.
			m = &bbaddrmap.Map{}
		}
		return bbaddrmap.NewLookup(m)
	})
	agg, hit, err := cfg.aggregateOf(&src, lookup)
	if err != nil {
		return nil, err
	}
	m, err := checkedMap()
	if err != nil {
		return nil, err
	}
	if hit {
		// A cached aggregate records whichever source built it.
		agg.profileBytes = src.residency()
	} else if src.kind != kindPrebuilt && cfg.cacheEnabled() {
		cfg.Cache.Put(aggCacheKey(cfg.ProfileEpoch), EncodeAggregate(agg))
	}
	if rebuildPaths {
		// From the complete profile, before the layout cache lookups: the
		// paths' fingerprint is part of the layout policy key.
		cfg.HotPaths = reconstructPaths(lookup(), src.prof)
	}
	res, err := layoutAggregate(m, agg, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats.AggregateCacheHit = hit
	return res, nil
}

// aggregateOf returns the source's aggregate: a Prebuilt source's own, the
// epoch's cached one when the incremental cache holds it (a During run then
// goes ahead with a nil add), or what feed builds.
func (c Config) aggregateOf(src *Source, lookup func() *bbaddrmap.Lookup) (agg *Aggregate, hit bool, err error) {
	if src.kind == kindPrebuilt {
		return src.agg, false, nil
	}
	if c.cacheEnabled() {
		// DecodeAggregate copies out every name and count it keeps, so it
		// reads the cached bytes in place.
		if data, _, ok := c.Cache.ViewCost(aggCacheKey(c.ProfileEpoch)); ok {
			// A corrupt entry falls through to a rebuild that overwrites it.
			if agg, err = DecodeAggregate(data); err == nil {
				if src.kind == kindDuring {
					src.prof, err = src.run(nil)
				}
				return agg, err == nil, err
			}
		}
	}
	agg, err = c.feed(src, lookup)
	return agg, false, err
}

// held is the loader of a map the caller already holds.
func held(m *bbaddrmap.Map) func() (*bbaddrmap.Map, error) {
	return func() (*bbaddrmap.Map, error) { return m, nil }
}

// AnalyzeAggregate is Analyze of a Prebuilt source against m.
//
// Deprecated: use Analyze(loadMap, Prebuilt(agg), cfg). The benchmark's
// second edition drops this wrapper.
func AnalyzeAggregate(m *bbaddrmap.Map, agg *Aggregate, cfg Config) (*Result, error) {
	return Analyze(held(m), Prebuilt(agg), cfg)
}

// AnalyzeStream is Analyze of a Wire source against m.
//
// Deprecated: use Analyze(loadMap, Wire(r), cfg). The benchmark's second
// edition drops this wrapper.
func AnalyzeStream(m *bbaddrmap.Map, r io.Reader, cfg Config) (*Result, error) {
	return Analyze(held(m), Wire(r), cfg)
}
