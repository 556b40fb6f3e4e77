// Package profile defines hardware-profile data: Last Branch Record (LBR)
// samples as collected by the simulator's PMU (the stand-in for Linux perf
// on Intel LBR hardware, §3.3), their serialization, and aggregation into
// weighted branch edges.
package profile

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"propeller/internal/wire"
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

// profMagic opens a serialized profile: WPR3 is WPR2 with delta-coded records.
const profMagic = "WPR3"

// Decoder sanity caps: a header field exceeding these is corrupt input,
// and must fail cleanly instead of driving a huge allocation.
const (
	maxNameLen    = 1 << 16
	maxBuildIDLen = 1 << 10
	maxSamples    = 1 << 28
)

// maxSampleBytes bounds an encoded sample: a count and two varints per record.
const maxSampleBytes = (1 + 2*LBRDepth) * wire.MaxVarintLen64

// Write serializes the profile (the perf.data stand-in).
func (p *Profile) Write(w io.Writer) error {
	_, err := w.Write(p.AppendWire(nil))
	return err
}

// AppendWire appends the profile's wire encoding (DESIGN.md §6) to dst and
// returns the extended slice. A record is the zig-zag varints of From - prevTo
// and To - From, prevTo being 0 at the start of a sample: LBR records chain,
// so both are small, and the differences wrap in uint64, so any pair of
// addresses round-trips. It is AppendHeader followed by AppendSample of
// each sample, which a collector calls itself to encode samples as they
// arrive; encoded into a reused, warmed-up buffer, a profile costs zero
// allocations.
func (p *Profile) AppendWire(dst []byte) []byte {
	records := 0
	for i := range p.Samples {
		records += len(p.Samples[i].Records)
	}
	// Chained records take two to three bytes; others grow dst as they go.
	dst = slices.Grow(dst, len(profMagic)+len(p.Binary)+len(p.BuildID)+4*wire.MaxVarintLen64+len(p.Samples)+3*records)
	dst = AppendHeader(dst, Header{Binary: p.Binary, BuildID: p.BuildID, Period: p.Period, Samples: uint64(len(p.Samples))})
	for _, s := range p.Samples {
		dst = AppendSample(dst, s)
	}
	return dst
}

// AppendHeader appends the wire header of a profile with h's metadata and
// declared sample count; the h.Samples encoded samples must follow it.
func AppendHeader(dst []byte, h Header) []byte {
	dst = slices.Grow(dst, len(profMagic)+len(h.Binary)+len(h.BuildID)+4*wire.MaxVarintLen64)
	w := wire.Writer{Buf: append(dst, profMagic...)}
	w.Str(h.Binary)
	w.Str(h.BuildID)
	w.U64(h.Period)
	w.U64(h.Samples)
	return w.Buf
}

// AppendSample appends one sample's wire encoding: its record count, then
// each record delta-coded against the previous record's target.
func AppendSample(dst []byte, s Sample) []byte {
	w := wire.Writer{Buf: dst}
	w.Int(len(s.Records))
	var prevTo uint64
	for _, r := range s.Records {
		w.I64(int64(r.From - prevTo))
		w.I64(int64(r.To - r.From))
		prevTo = r.To
	}
	return w.Buf
}

// Header is the leading metadata of a serialized profile.
type Header struct {
	Binary  string
	BuildID string
	Period  uint64
	// Samples is the declared sample count (what follows the header).
	Samples uint64
}

// Decoder reads one serialized profile through a byte window: the whole
// payload, decoded in place, or a buffer refilled from a stream. Corrupt
// input (truncated fields, absurd counts, over-deep samples, trailing bytes)
// is an error, never a panic or an allocation ahead of the bytes actually
// present. Decoders share no state; one is not safe for concurrent use.
type Decoder struct {
	// Header is decoded when the Decoder is made: a caller can reject a
	// profile (wrong build ID, wrong binary) without paying for its body.
	Header Header

	src  io.Reader // nil when buf began as the whole payload
	buf  []byte    // unread bytes in hand
	win  []byte    // what buf is refilled into
	rerr error     // why src stopped: io.EOF at a clean end
	next uint64    // index of the sample Next decodes
}

// NewDecoder reads the header of the profile r yields. A *bytes.Buffer is
// taken whole and decoded in place; anything else through a 64 KB window.
func NewDecoder(r io.Reader) (*Decoder, error) {
	if b, ok := r.(*bytes.Buffer); ok {
		return newDecoder(nil, b.Next(b.Len()), 0)
	}
	return newDecoder(r, nil, 64<<10)
}

func newDecoder(src io.Reader, buf []byte, window int) (*Decoder, error) {
	d := &Decoder{src: src, buf: buf, win: make([]byte, window)}
	if src == nil {
		d.rerr = io.EOF
	}
	return d, d.header()
}

// fill tops buf up to n bytes, or to all that src has left. Callers ask for
// one byte more than their field can take: with that byte in hand an
// over-long varint cannot pass for one cut short.
func (d *Decoder) fill(n int) {
	if d.rerr != nil || len(d.buf) >= n {
		return
	}
	if len(d.win) < n {
		d.win = make([]byte, n)
	}
	have := copy(d.win, d.buf)
	k, err := io.ReadAtLeast(d.src, d.win[have:], n-have)
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	d.buf, d.rerr = d.win[:have+k], err
}

// bad is the error for an over-long varint (n < 0) or for input that ended
// inside a field: a truncation, unless the reader stopped with its own error.
func (d *Decoder) bad(n int, what string) error {
	switch {
	case n < 0:
		return fmt.Errorf("profile: over-long varint in %s", what)
	case d.rerr != io.EOF:
		return fmt.Errorf("profile: reading %s: %w", what, d.rerr)
	}
	return fmt.Errorf("profile: truncated %s: %w", what, io.ErrUnexpectedEOF)
}

// uvarint reads a header varint; n <= 0 is wire.Uvarints' refusal, for bad.
func (d *Decoder) uvarint() (uint64, int) {
	var v [1]uint64
	d.fill(wire.MaxVarintLen64 + 1)
	n := wire.Uvarints(v[:], d.buf)
	d.buf = d.buf[max(n, 0):]
	return v[0], n
}

func (d *Decoder) str(what string, max uint64) (string, error) {
	n, k := d.uvarint()
	if k <= 0 {
		return "", d.bad(k, what+" length")
	}
	if n > max {
		return "", fmt.Errorf("profile: %s length %d exceeds cap %d", what, n, max)
	}
	if d.fill(int(n)); len(d.buf) < int(n) {
		return "", d.bad(0, what)
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

func (d *Decoder) header() (err error) {
	if d.fill(len(profMagic)); len(d.buf) < len(profMagic) {
		return d.bad(0, "magic")
	}
	if magic := d.buf[:len(profMagic)]; string(magic) != profMagic {
		return fmt.Errorf("profile: bad magic %q, want %q (the WPR2 and WPRF formats are no longer read)", magic, profMagic)
	}
	d.buf = d.buf[len(profMagic):]
	h := &d.Header
	if h.Binary, err = d.str("binary name", maxNameLen); err != nil {
		return err
	}
	if h.BuildID, err = d.str("build ID", maxBuildIDLen); err != nil {
		return err
	}
	var n int
	if h.Period, n = d.uvarint(); n <= 0 {
		return d.bad(n, "period")
	}
	if h.Samples, n = d.uvarint(); n <= 0 {
		return d.bad(n, "sample count")
	}
	if h.Samples > maxSamples {
		return fmt.Errorf("profile: implausible sample count %d", h.Samples)
	}
	return nil
}

// Next appends the next sample's records, at most LBRDepth, to dst. After
// the last declared sample it returns io.EOF if the input ends there too:
// bytes past it are corruption, as in every wire.Reader format, and a stream
// is read to its end to count them.
func (d *Decoder) Next(dst []Branch) ([]Branch, error) {
	if d.next == d.Header.Samples {
		trailing := len(d.buf)
		for d.rerr == nil {
			d.buf = nil
			d.fill(1)
			trailing += len(d.buf)
		}
		if d.rerr != io.EOF {
			return dst, fmt.Errorf("profile: reading past the last sample: %w", d.rerr)
		}
		if trailing > 0 {
			return dst, fmt.Errorf("profile: %d trailing bytes", trailing)
		}
		return dst, io.EOF
	}
	// With a sample's worst case in hand nothing below can come up short:
	// only the tail of the input is decoded from fewer bytes.
	d.fill(maxSampleBytes + 1)
	var deltas [2 * LBRDepth]uint64
	n := wire.Uvarints(deltas[:1], d.buf)
	if n <= 0 {
		return dst, d.bad(n, fmt.Sprintf("record count in sample %d", d.next))
	}
	nRec := deltas[0]
	if nRec > LBRDepth {
		return dst, fmt.Errorf("profile: sample with %d records exceeds LBR depth", nRec)
	}
	if nRec > 0 {
		k := wire.Uvarints(deltas[:2*nRec], d.buf[n:])
		if k <= 0 {
			return dst, d.bad(k, fmt.Sprintf("record in sample %d", d.next))
		}
		n += k
		l := len(dst)
		dst = slices.Grow(dst, int(nRec))[:l+int(nRec)]
		var prevTo uint64
		for i, recs := 0, dst[l:]; i < len(recs); i++ {
			from := prevTo + uint64(wire.Unzigzag(deltas[2*i]))
			prevTo = from + uint64(wire.Unzigzag(deltas[2*i+1]))
			recs[i] = Branch{From: from, To: prevTo}
		}
	}
	d.buf = d.buf[n:]
	d.next++
	return dst, nil
}

// arenaBlockRecords caps the flat blocks Profile decodes records into:
// one allocation backs ~128 full-depth samples (§5.1's memory fix).
const arenaBlockRecords = 1 << 12

// Profile materializes the samples not yet decoded, each a capacity-clamped
// slice of a shared block, so a later append cannot alias a neighbor. A
// block holds the declared samples still to come at full depth, up to
// arenaBlockRecords: a 64-sample ingest batch takes 32 KB, not 64.
func (d *Decoder) Profile() (*Profile, error) {
	h := d.Header
	// Preallocate only up to a modest bound: the declared count is
	// attacker-controlled and the samples may not actually follow.
	p := &Profile{Binary: h.Binary, BuildID: h.BuildID, Period: h.Period,
		Samples: make([]Sample, 0, min(h.Samples-d.next, 1<<12))}
	var block []Branch
	for {
		if cap(block)-len(block) < LBRDepth && d.next < h.Samples {
			block = make([]Branch, 0, min(arenaBlockRecords, (h.Samples-d.next)*LBRDepth))
		}
		l := len(block)
		var err error
		if block, err = d.Next(block); err == io.EOF {
			return p, nil
		} else if err != nil {
			return nil, err
		}
		p.Samples = append(p.Samples, Sample{Records: block[l:len(block):len(block)]})
	}
}

// Read deserializes a profile from a stream, ReadBytes one held in memory.
func Read(r io.Reader) (*Profile, error)   { return readAll(NewDecoder(r)) }
func ReadBytes(b []byte) (*Profile, error) { return readAll(newDecoder(nil, b, 0)) }

func readAll(d *Decoder, err error) (*Profile, error) {
	if err != nil {
		return nil, err
	}
	return d.Profile()
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
