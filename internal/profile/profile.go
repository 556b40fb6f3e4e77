// Package profile defines hardware-profile data: Last Branch Record (LBR)
// samples as collected by the simulator's PMU (the stand-in for Linux perf
// on Intel LBR hardware, §3.3), their serialization, and aggregation into
// weighted branch edges.
package profile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// LBRDepth is the depth of the last-branch-record ring: the hardware keeps
// the source and destination of the last 32 retired taken branches (§3.3).
const LBRDepth = 32

// Branch is one taken control transfer: From is the address of the branch
// instruction, To the target address.
type Branch struct {
	From, To uint64
}

// Sample is one LBR snapshot: up to LBRDepth records, newest last.
type Sample struct {
	Records []Branch
}

// Profile is a collection of samples from one profiling run.
type Profile struct {
	// Binary identifies the profiled binary (informational).
	Binary string
	// BuildID is the content hash of the profiled binary, recorded so the
	// fleet collection tier and the whole-program analyzer can reject
	// profiles that do not match the serving binary (the build-ID matching
	// of Google's propeller tooling). Empty means unknown (legacy profiles
	// or synthetic test inputs).
	BuildID string
	// Period is the sampling period in retired instructions.
	Period  uint64
	Samples []Sample
}

// Edge is an aggregated (from, to) address pair.
type Edge struct {
	From, To uint64
}

// Aggregate flattens all samples into edge weights. Each LBR entry counts
// once; consecutive entries additionally imply the fall-through path
// between one branch's target and the next branch's source, which the
// whole-program analysis uses to assign block execution counts.
func (p *Profile) Aggregate() map[Edge]uint64 {
	return p.AggregateInto(make(map[Edge]uint64, 1024))
}

// AggregateInto folds the profile's edge weights into dst and returns it,
// reusing the caller's map across merges — the repeated-aggregation path
// (serving tiers folding profile epochs) pays only for new edges instead
// of rebuilding the map per profile. A nil dst allocates a fresh map.
func (p *Profile) AggregateInto(dst map[Edge]uint64) map[Edge]uint64 {
	if dst == nil {
		dst = make(map[Edge]uint64, 1024)
	}
	for _, s := range p.Samples {
		for _, r := range s.Records {
			dst[Edge{r.From, r.To}]++
		}
	}
	return dst
}

// FallRange is a contiguous execution range implied by two consecutive LBR
// entries: the code between Start (a branch target) and End (the next
// branch's source) executed sequentially.
type FallRange struct {
	Start, End uint64
}

// FallRanges extracts sequential-execution ranges from each sample.
func (p *Profile) FallRanges() map[FallRange]uint64 {
	out := make(map[FallRange]uint64)
	for _, s := range p.Samples {
		for i := 1; i < len(s.Records); i++ {
			start := s.Records[i-1].To
			end := s.Records[i].From
			if end >= start {
				out[FallRange{start, end}]++
			}
		}
	}
	return out
}

// SortedEdges returns the aggregated edges ordered by descending weight,
// then by address for determinism.
func SortedEdges(agg map[Edge]uint64) []Edge {
	edges := make([]Edge, 0, len(agg))
	for e := range agg {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		wi, wj := agg[edges[i]], agg[edges[j]]
		if wi != wj {
			return wi > wj
		}
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return edges
}

// Merge combines profile shards (e.g. the per-host outputs of a fleet
// collection run) into one profile, concatenating samples in argument
// order so the result is deterministic. All shards must agree on the
// sampling period and — where recorded — the build ID: merging profiles of
// different binaries or incomparable sample weights is an error.
func Merge(profs ...*Profile) (*Profile, error) {
	if len(profs) == 0 {
		return nil, fmt.Errorf("profile: nothing to merge")
	}
	out := &Profile{}
	for i, p := range profs {
		if p == nil {
			return nil, fmt.Errorf("profile: merge input %d is nil", i)
		}
		if out.Binary == "" {
			out.Binary = p.Binary
		}
		if p.BuildID != "" {
			if out.BuildID == "" {
				out.BuildID = p.BuildID
			} else if out.BuildID != p.BuildID {
				return nil, fmt.Errorf("profile: build ID mismatch across shards: %s vs %s", out.BuildID, p.BuildID)
			}
		}
		if p.Period != 0 {
			if out.Period == 0 {
				out.Period = p.Period
			} else if out.Period != p.Period {
				return nil, fmt.Errorf("profile: period mismatch across shards: %d vs %d", out.Period, p.Period)
			}
		}
		out.Samples = append(out.Samples, p.Samples...)
	}
	return out, nil
}

// MergeInto folds delta's samples into dst in place — the delta-ingestion
// path: where Merge re-validates and reallocates a fresh profile per
// call, MergeInto appends to dst's existing backing array, so publishing
// a new epoch into a long-lived aggregate costs the delta, not the
// aggregate. The compatibility rules are Merge's: the period and — where
// recorded — the build ID must agree. A delta with an ID or period dst
// lacks fills it in.
func MergeInto(dst, delta *Profile) error {
	if dst == nil || delta == nil {
		return fmt.Errorf("profile: nil merge input")
	}
	if delta.BuildID != "" {
		if dst.BuildID == "" {
			dst.BuildID = delta.BuildID
		} else if dst.BuildID != delta.BuildID {
			return fmt.Errorf("profile: build ID mismatch across shards: %s vs %s", dst.BuildID, delta.BuildID)
		}
	}
	if delta.Period != 0 {
		if dst.Period == 0 {
			dst.Period = delta.Period
		} else if dst.Period != delta.Period {
			return fmt.Errorf("profile: period mismatch across shards: %d vs %d", dst.Period, delta.Period)
		}
	}
	if dst.Binary == "" {
		dst.Binary = delta.Binary
	}
	dst.Samples = append(dst.Samples, delta.Samples...)
	return nil
}

// Wire format magics: profMagicV2 adds the build-ID header field; the V1
// magic is still accepted on read (legacy profiles carry no build ID).
const (
	profMagicV1 = "WPRF"
	profMagicV2 = "WPR2"
)

// Decoder sanity caps: a header field exceeding these is corrupt input,
// and must fail cleanly instead of driving a huge allocation.
const (
	maxNameLen    = 1 << 16
	maxBuildIDLen = 1 << 10
	maxSamples    = 1 << 28
)

// Write serializes the profile (the perf.data stand-in).
func (p *Profile) Write(w io.Writer) error {
	_, err := w.Write(p.AppendWire(nil))
	return err
}

// AppendWire appends the profile's wire encoding to dst and returns the
// extended slice. This is the collector batch path: encoding a small chunk
// into a reused buffer costs zero allocations once the buffer has warmed
// up.
func (p *Profile) AppendWire(dst []byte) []byte {
	dst = append(dst, profMagicV2...)
	dst = binary.AppendUvarint(dst, uint64(len(p.Binary)))
	dst = append(dst, p.Binary...)
	dst = binary.AppendUvarint(dst, uint64(len(p.BuildID)))
	dst = append(dst, p.BuildID...)
	dst = binary.AppendUvarint(dst, p.Period)
	dst = binary.AppendUvarint(dst, uint64(len(p.Samples)))
	for _, s := range p.Samples {
		dst = binary.AppendUvarint(dst, uint64(len(s.Records)))
		for _, r := range s.Records {
			dst = binary.AppendUvarint(dst, r.From)
			dst = binary.AppendUvarint(dst, r.To)
		}
	}
	return dst
}

// Header is the leading metadata of a serialized profile.
type Header struct {
	Binary  string
	BuildID string
	Period  uint64
	// Samples is the declared sample count (what follows the header).
	Samples uint64
}

// wireReader is what the decoder needs from its input. *bufio.Reader and
// *bytes.Reader both satisfy it, so decoding an in-memory batch (the
// ingestion-shard hot path) skips the bufio wrapper and its allocation.
type wireReader interface {
	io.Reader
	io.ByteReader
}

func readString(br wireReader, what string, max uint64) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("profile: truncated %s length: %w", what, err)
	}
	if n > max {
		return "", fmt.Errorf("profile: %s length %d exceeds cap %d", what, n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", fmt.Errorf("profile: truncated %s: %w", what, err)
	}
	return string(buf), nil
}

func readHeader(br wireReader) (Header, error) {
	var h Header
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return h, fmt.Errorf("profile: truncated magic: %w", err)
	}
	withBuildID := false
	switch string(magic[:]) {
	case profMagicV2:
		withBuildID = true
	case profMagicV1:
	default:
		return h, fmt.Errorf("profile: bad magic %q", magic)
	}
	var err error
	if h.Binary, err = readString(br, "binary name", maxNameLen); err != nil {
		return h, err
	}
	if withBuildID {
		if h.BuildID, err = readString(br, "build ID", maxBuildIDLen); err != nil {
			return h, err
		}
	}
	if h.Period, err = binary.ReadUvarint(br); err != nil {
		return h, fmt.Errorf("profile: truncated period: %w", err)
	}
	if h.Samples, err = binary.ReadUvarint(br); err != nil {
		return h, fmt.Errorf("profile: truncated sample count: %w", err)
	}
	if h.Samples > maxSamples {
		return h, fmt.Errorf("profile: implausible sample count %d", h.Samples)
	}
	return h, nil
}

// Stream reads a serialized profile incrementally — the "chunked reading"
// §5.1 names as the easy fix for profile-read memory. onHeader, when
// non-nil, runs after the header is decoded and before any sample is
// consumed, so callers can reject a profile (wrong build ID, wrong binary)
// without paying for its body. onSample is invoked for every sample; its
// record slice is only valid for the duration of the callback. Either
// callback returning an error aborts the read. The returned count is the
// number of samples consumed.
func Stream(r io.Reader, onHeader func(Header) error, onSample func(Sample) error) (Header, int, error) {
	br, ok := r.(wireReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	h, err := readHeader(br)
	if err != nil {
		return h, 0, err
	}
	if onHeader != nil {
		if err := onHeader(h); err != nil {
			return h, 0, err
		}
	}
	var buf [LBRDepth]Branch
	for i := uint64(0); i < h.Samples; i++ {
		nRec, err := binary.ReadUvarint(br)
		if err != nil {
			return h, int(i), fmt.Errorf("profile: truncated record count in sample %d: %w", i, err)
		}
		if nRec > LBRDepth {
			return h, int(i), fmt.Errorf("profile: sample with %d records exceeds LBR depth", nRec)
		}
		s := Sample{Records: buf[:nRec]}
		for j := range s.Records {
			if s.Records[j].From, err = binary.ReadUvarint(br); err != nil {
				return h, int(i), fmt.Errorf("profile: truncated record in sample %d: %w", i, err)
			}
			if s.Records[j].To, err = binary.ReadUvarint(br); err != nil {
				return h, int(i), fmt.Errorf("profile: truncated record in sample %d: %w", i, err)
			}
		}
		if err := onSample(s); err != nil {
			return h, int(i), err
		}
	}
	return h, int(h.Samples), nil
}

// Read deserializes a profile. It is Stream with materialization: corrupt
// input (truncated headers, absurd counts, over-deep samples) returns an
// error and never panics or over-allocates ahead of the bytes actually
// present.
func Read(r io.Reader) (*Profile, error) {
	p := &Profile{}
	var arena branchArena
	_, _, err := Stream(r, func(h Header) error {
		p.Binary = h.Binary
		p.BuildID = h.BuildID
		p.Period = h.Period
		// Preallocate only up to a modest bound: the declared count is
		// attacker-controlled and the samples may not actually follow.
		cap := h.Samples
		if cap > 1<<12 {
			cap = 1 << 12
		}
		p.Samples = make([]Sample, 0, cap)
		return nil
	}, func(s Sample) error {
		p.Samples = append(p.Samples, Sample{Records: arena.save(s.Records)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// arenaBlockRecords sizes the decode arena's flat blocks: one allocation
// backs ~128 full-depth samples instead of one per sample.
const arenaBlockRecords = 1 << 12

// branchArena hands out record slices carved from large flat blocks — the
// arena-style decode of §5.1's memory fix: materializing a profile costs
// one allocation per block, not per sample. Slices are capacity-clamped so
// a later append cannot alias a neighbor.
type branchArena struct {
	block []Branch
}

func (a *branchArena) alloc(n int) []Branch {
	if len(a.block)+n > cap(a.block) {
		size := arenaBlockRecords
		if n > size {
			size = n
		}
		a.block = make([]Branch, 0, size)
	}
	l := len(a.block)
	a.block = a.block[:l+n]
	return a.block[l : l+n : l+n]
}

func (a *branchArena) save(recs []Branch) []Branch {
	out := a.alloc(len(recs))
	copy(out, recs)
	return out
}

// SizeBytes estimates the serialized size, used by the memory model when
// accounting for profile reading (§5.1).
func (p *Profile) SizeBytes() int64 {
	n := int64(16 + len(p.Binary) + len(p.BuildID))
	for _, s := range p.Samples {
		n += 2 + int64(len(s.Records))*10
	}
	return n
}
