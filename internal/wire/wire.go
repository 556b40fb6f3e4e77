// Package wire is the tree's one varint codec: the append-to-[]byte Writer
// and the checked Reader every cached or shipped format is written and
// parsed with, and beside them the slice-level Uvarints/Unzigzag that
// profile's decoder, whose bytes arrive a window at a time, calls directly.
//
// Reader rules: the first error sticks, names the owning package and is
// what Done reports, and every later read returns a zero value; Int rejects
// values past MaxInt (they would wrap negative and re-encode unchanged);
// Count rejects a count above the bytes that remain (every element of every
// format costs at least one), so no header allocates more than its input;
// Str and Bytes copy, never aliasing the input (View is the one read that
// does, for a caller that interns what it keeps); Done rejects trailing
// bytes. Pool allocates a decoder's slices in bulk within the same bound.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// MaxVarintLen64 is the longest encoding Uvarints accepts and Writer.U64 writes.
const MaxVarintLen64 = binary.MaxVarintLen64

// Uvarints is binary.Uvarint for the len(dst) > 0 consecutive values at the
// front of b: it fills dst and returns the bytes they took together, or the
// first refusal's n (0: b ends mid-value; negative: over-long). One call per
// run, the one-byte case decided inline, outruns a call per value.
func Uvarints(dst []uint64, b []byte) (n int) {
	for i := range dst {
		if n < len(b) && b[n] < 0x80 {
			dst[i] = uint64(b[n])
			n++
			continue
		}
		v, k := binary.Uvarint(b[n:])
		if k <= 0 {
			return k
		}
		dst[i] = v
		n += k
	}
	return n
}

// Unzigzag undoes the zig-zag binary.AppendVarint, and so Writer.I64, applies.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer appends a wire encoding to Buf, which starts as the format's magic.
type Writer struct{ Buf []byte }

func (w *Writer) U64(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }
func (w *Writer) I64(v int64)  { w.Buf = binary.AppendVarint(w.Buf, v) }
func (w *Writer) Byte(b byte)  { w.Buf = append(w.Buf, b) }

// Int writes a non-negative int: an id, a counter or an element count.
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Str and Bytes write a length prefix, then the contents.
func (w *Writer) Str(s string)   { w.Int(len(s)); w.Buf = append(w.Buf, s...) }
func (w *Writer) Bytes(p []byte) { w.Int(len(p)); w.Buf = append(w.Buf, p...) }

var scratch = sync.Pool{New: func() any { return new(Writer) }}

// Encode runs fill over a reused Writer whose buffer starts as magic and
// returns a copy of what it wrote, allocated once at its exact size: an
// encoder neither grows its result by doubling nor walks its input twice
// to size it. EncodedLen is len(Encode(magic, fill)) without the copy.
func Encode(magic string, fill func(*Writer)) []byte {
	w := scratch.Get().(*Writer)
	w.Buf = append(w.Buf[:0], magic...)
	fill(w)
	out := append(make([]byte, 0, len(w.Buf)), w.Buf...)
	scratch.Put(w)
	return out
}

func EncodedLen(magic string, fill func(*Writer)) int {
	w := scratch.Get().(*Writer)
	w.Buf = append(w.Buf[:0], magic...)
	fill(w)
	n := len(w.Buf)
	scratch.Put(w)
	return n
}

// Reader parses a wire encoding; the package comment has its rules.
type Reader struct {
	pkg  string
	data []byte
	off  int
	err  error
}

// NewReader reads data, prefixing errors with pkg; a wrong magic is the first.
func NewReader(pkg, magic string, data []byte) *Reader {
	r := &Reader{pkg: pkg, data: data}
	if len(data) >= len(magic) && string(data[:len(magic)]) == magic {
		r.off = len(magic)
	} else {
		r.Fail("bad magic, want %q", magic)
	}
	return r
}

// Fail records a decoder's own check, unless an earlier error is set.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.pkg+": "+format, args...)
	}
}

// Err returns the first error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the first error, or an error if input remains unread.
func (r *Reader) Done() error {
	if r.off != len(r.data) {
		r.Fail("%d trailing bytes", len(r.data)-r.off)
	}
	return r.err
}

func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 { // encoding/binary's report of truncation (0) or overflow (<0)
		r.Fail("truncated or overlong varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// I64 is Unzigzag over U64, sharing its checks.
func (r *Reader) I64() int64 { return Unzigzag(r.U64()) }

func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.data) {
		r.Fail("truncated byte at offset %d", r.off)
		return 0
	}
	r.off++
	return r.data[r.off-1]
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail("bad bool %d before offset %d", b, r.off)
	}
	return b == 1
}

// Int reads a value that must fit a non-negative int.
func (r *Reader) Int() int {
	v := r.U64()
	if v <= math.MaxInt {
		return int(v)
	}
	r.Fail("value %d before offset %d overflows int", v, r.off)
	return 0
}

// Count reads an element count or byte length.
func (r *Reader) Count() int {
	v := r.U64()
	if v <= uint64(len(r.data)-r.off) {
		return int(v)
	}
	r.Fail("count %d before offset %d exceeds remaining input", v, r.off)
	return 0
}

// span consumes a length-prefixed run of bytes.
func (r *Reader) span() []byte {
	n := r.Count()
	r.off += n
	return r.data[r.off-n : r.off]
}

// Str and Bytes read a length-prefixed string or blob (nil when empty).
func (r *Reader) Str() string   { return string(r.span()) }
func (r *Reader) Bytes() []byte { return append([]byte(nil), r.span()...) }

// View reads a length-prefixed blob without copying it: the result aliases
// the input and must not be modified or retained past the input's lifetime.
func (r *Reader) View() []byte { return r.span() }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Pool carves the element slices of a decoded value out of shared chunks.
// MinBytes is the fewest input bytes one encoded element can occupy: Take
// fails the reader on a count the remaining input could not hold and sizes
// a new chunk max(n, min(Chunk, remaining input / MinBytes)) elements. A
// chunk is opened only once the last is used up by elements each paid for
// with MinBytes of input, so a pool allocates within a constant factor of
// the input's length, as Reader.Count promises for one slice. Chunk 0
// allocates every slice exactly, as a value that outlives the call should
// be. Slices come back capacity-clamped: appending to one reallocates it
// and never writes into its neighbour.
type Pool[T any] struct {
	Chunk, MinBytes int
	free            []T
}

// Take returns n zeroed elements (nil when n is 0 or the reader has failed).
func (p *Pool[T]) Take(r *Reader, n int) []T {
	if n == 0 || r.err != nil {
		return nil
	}
	fit := r.Remaining() / p.MinBytes
	if n > fit {
		r.Fail("count %d before offset %d exceeds what the remaining input can hold", n, r.off)
		return nil
	}
	if n > len(p.free) {
		p.free = make([]T, max(n, min(p.Chunk, fit)))
	}
	s := p.free[:n:n]
	p.free = p.free[n:]
	return s
}

// Take is Pool.Take for one exactly allocated slice.
func Take[T any](r *Reader, n, minBytes int) []T {
	return (&Pool[T]{MinBytes: minBytes}).Take(r, n)
}
