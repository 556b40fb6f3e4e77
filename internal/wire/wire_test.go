package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := &Writer{Buf: []byte("MAGC")}
	ints := []int64{0, 1, -1, 63, -64, 64, math.MaxInt64, math.MinInt64}
	for _, v := range ints {
		w.I64(v)
	}
	w.U64(math.MaxUint64)
	w.Int(math.MaxInt)
	w.Byte(0xfe)
	w.Bool(true)
	w.Bool(false)
	w.Str("héllo")
	w.Str("")
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)

	r := NewReader("pkg", "MAGC", w.Buf)
	for _, want := range ints {
		if got := r.I64(); got != want {
			t.Errorf("I64 = %d, want %d", got, want)
		}
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.Int(); got != math.MaxInt {
		t.Errorf("Int = %d", got)
	}
	if got := r.Byte(); got != 0xfe {
		t.Errorf("Byte = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if got := r.Str(); got != "héllo" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	blob := r.Bytes()
	if !bytes.Equal(blob, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", blob)
	}
	if got := r.Bytes(); got != nil {
		t.Errorf("empty Bytes = %v, want nil", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	// Decoded blobs are copies, never views of the input.
	blob[0] = 9
	if w.Buf[len(w.Buf)-4] != 1 {
		t.Error("Bytes aliases the input")
	}
}

func TestReaderRejects(t *testing.T) {
	overlong := bytes.Repeat([]byte{0xff}, 10) // ten continuation bytes: more than 64 bits
	maxIntPlus1 := binary.AppendUvarint(nil, math.MaxInt+1)
	huge := binary.AppendUvarint(nil, 1<<63)
	for _, tc := range []struct {
		name  string
		magic string
		data  []byte
		read  func(*Reader)
		want  string
	}{
		{"short magic", "MAGC", []byte("MAG"), func(r *Reader) { r.U64() }, "bad magic"},
		{"wrong magic", "MAGC", []byte("MAGX\x00"), func(r *Reader) { r.U64() }, "bad magic"},
		{"truncated varint", "", []byte{0x80}, func(r *Reader) { r.U64() }, "varint at offset 0"},
		{"empty varint", "", nil, func(r *Reader) { r.I64() }, "varint at offset 0"},
		{"overlong varint", "", overlong, func(r *Reader) { r.U64() }, "varint at offset 0"},
		{"overlong signed varint", "", overlong, func(r *Reader) { r.I64() }, "varint at offset 0"},
		{"truncated byte", "M", []byte("M"), func(r *Reader) { r.Byte() }, "truncated byte at offset 1"},
		{"bad bool", "", []byte{2}, func(r *Reader) { r.Bool() }, "bad bool 2"},
		{"Int > MaxInt", "", maxIntPlus1, func(r *Reader) { r.Int() }, "overflows int"},
		{"count > remaining", "", []byte{3, 'a', 'b'}, func(r *Reader) { r.Count() }, "count 3 before offset 1 exceeds"},
		{"Str past end", "", []byte{3, 'a', 'b'}, func(r *Reader) { r.Str() }, "exceeds remaining"},
		{"Bytes past end", "", append(huge, 'x'), func(r *Reader) { r.Bytes() }, "exceeds remaining"},
		{"trailing byte", "", []byte{1, 0}, func(r *Reader) { r.U64() }, "1 trailing bytes"},
	} {
		r := NewReader("pkg", tc.magic, tc.data)
		tc.read(r)
		err := r.Done()
		if err == nil || !strings.HasPrefix(err.Error(), "pkg: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want pkg: ...%s...", tc.name, err, tc.want)
		}
	}
}

// TestFirstErrorSticks: after a failure every read yields a zero value
// without consuming input, a decoder's own Fail does not replace it, and
// Done reports it rather than the bytes left over.
func TestFirstErrorSticks(t *testing.T) {
	r := NewReader("pkg", "", []byte{9, 5, 1, 'x', 7})
	if r.Count() != 0 || r.Err() == nil {
		t.Fatal("count of 9 with 4 bytes left accepted")
	}
	first := r.Err()
	if r.U64() != 0 || r.I64() != 0 || r.Int() != 0 || r.Count() != 0 || r.Byte() != 0 || r.Bool() || r.Str() != "" || r.Bytes() != nil {
		t.Error("read after an error returned a non-zero value")
	}
	r.Fail("semantic check")
	if r.Err() != first || r.Done() != first {
		t.Errorf("first error replaced: %v, then %v", first, r.Done())
	}

	ok := NewReader("pkg", "", []byte{4})
	if ok.Int() != 4 {
		t.Fatal("Int")
	}
	ok.Fail("block id %d out of range", 4)
	if err := ok.Done(); err == nil || err.Error() != "pkg: block id 4 out of range" {
		t.Errorf("Fail: %v", err)
	}
}

// TestPool: slices are carved from shared chunks with their capacity
// clamped; a chunk is never larger than the remaining input could fill, a
// count it could not hold fails the reader, and chunk 0 allocates exactly.
func TestPool(t *testing.T) {
	data := append([]byte("MAGC"), make([]byte, 100)...)
	r := NewReader("pkg", "MAGC", data)
	p := Pool[int32]{Chunk: 64, MinBytes: 4}
	a, b := p.Take(r, 3), p.Take(r, 5)
	if len(a) != 3 || cap(a) != 3 || len(b) != 5 || cap(b) != 5 {
		t.Fatalf("Take(3), Take(5): len/cap %d/%d, %d/%d", len(a), cap(a), len(b), cap(b))
	}
	if got := len(p.free) + 8; got != 25 { // both from one chunk of min(64, 100/4)
		t.Errorf("first chunk holds %d elements, want 25", got)
	}
	if c := p.Take(r, 20); len(c) != 20 || len(p.free) != 5 {
		t.Errorf("a take the chunk cannot serve: %d elements, %d free; want a new chunk of 25", len(c), len(p.free))
	}
	if p.Take(r, 0) != nil {
		t.Error("Take(0) is not nil")
	}
	if got := p.Take(r, 26); got != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "pkg: count 26") {
		t.Errorf("a count the remaining input cannot hold: %v, err %v", got, r.Err())
	}
	if p.Take(r, 1) != nil {
		t.Error("Take after a failure is not nil")
	}

	r = NewReader("pkg", "MAGC", data)
	exact := Pool[int32]{MinBytes: 4}
	if s := exact.Take(r, 7); len(s) != 7 || len(exact.free) != 0 {
		t.Errorf("chunk 0: %d elements taken, %d left over", len(s), len(exact.free))
	}
	if r.Remaining() != 100 {
		t.Errorf("Remaining = %d, want 100", r.Remaining())
	}
}

func TestViewAliasesInput(t *testing.T) {
	w := &Writer{Buf: []byte("MAGC")}
	w.Str("abc")
	r := NewReader("pkg", "MAGC", w.Buf)
	if v := r.View(); string(v) != "abc" || &v[0] != &w.Buf[5] {
		t.Errorf("View = %q, aliasing %t", v, len(v) > 0 && &v[0] == &w.Buf[5])
	}
}

// TestEncode: the result is the magic plus what fill wrote, in a buffer of
// exactly that size which later encodings do not touch, and EncodedLen
// agrees, from several goroutines at once.
func TestEncode(t *testing.T) {
	fill := func(n int) func(*Writer) {
		return func(w *Writer) {
			for i := 0; i < n; i++ {
				w.Int(i)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 300; n += 7 {
				got := Encode("MAGC", fill(n))
				want := &Writer{Buf: []byte("MAGC")}
				fill(n)(want)
				Encode("OTHER", fill(500))
				if !bytes.Equal(got, want.Buf) || cap(got) != len(got) || EncodedLen("MAGC", fill(n)) != len(got) {
					t.Errorf("Encode of %d ints: %d bytes in a %d-byte buffer, want %d", n, len(got), cap(got), len(want.Buf))
				}
			}
		}()
	}
	wg.Wait()
}

// TestSliceVarints: Uvarints reads back a run of what Writer.U64 writes,
// Unzigzag undoes Writer.I64's zig-zag, and a run cut short or over-long
// anywhere is refused with binary.Uvarint's n, whatever decoded before it.
func TestSliceVarints(t *testing.T) {
	vals := []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1<<32 - 1, 1 << 63, math.MaxUint64}
	var run, signed Writer
	for _, v := range vals {
		run.U64(v)
		signed.I64(int64(v))
	}
	got := make([]uint64, len(vals))
	if n := Uvarints(got, run.Buf); n != len(run.Buf) {
		t.Fatalf("Uvarints consumed %d of %d bytes", n, len(run.Buf))
	}
	for i, v := range vals {
		if got[i] != v {
			t.Errorf("Uvarints[%d] = %#x, want %#x", i, got[i], v)
		}
	}
	if n := Uvarints(got, signed.Buf); n != len(signed.Buf) {
		t.Fatalf("Uvarints consumed %d of %d zig-zag bytes", n, len(signed.Buf))
	}
	for i, v := range vals {
		if Unzigzag(got[i]) != int64(v) {
			t.Errorf("Unzigzag[%d] = %#x, want %#x", i, Unzigzag(got[i]), int64(v))
		}
	}
	for k := 0; k < len(run.Buf); k++ {
		if n := Uvarints(got, run.Buf[:k]); n != 0 {
			t.Errorf("Uvarints of a run cut at %d returned %d, want 0", k, n)
		}
	}
	overlong := append([]byte{5}, bytes.Repeat([]byte{0x80}, 10)...)
	if n := Uvarints(got[:2], append(overlong, 1)); n >= 0 {
		t.Errorf("Uvarints accepted an 11-byte varint: n = %d", n)
	}
}
