package profile

import (
	"bytes"
	"fmt"
	"testing"
	"testing/iotest"
)

// FuzzRead exercises the decoder against arbitrary bytes. It must never
// panic. One in-place decode — accepted or not, hostile counts in any
// position — allocates at most 160 bytes per input byte plus a constant: the
// costliest byte is an empty sample, 24 bytes of Sample in a slice that
// append regrows by a quarter at a time, and the constant is the first 4096
// preallocated samples plus one arena block. The same bytes arriving one at
// a time through the window decode to the same samples or the same error,
// and so does a sample-by-sample Next loop. Whatever parses re-encodes and re-parses to the same
// samples. The formats this tree used to write never parse.
func FuzzRead(f *testing.F) {
	p := sample()
	p.BuildID = "feedface"
	f.Add(p.AppendWire(nil))
	f.Add([]byte("WPR3"))
	// 2^28 samples declared over a 14-byte body: no allocation on their account.
	f.Add(hdr(maxSamples).buf)
	f.Add(hdr(1).u(2).d(5).d(-3).d(1 << 40).raw(0x80).buf)
	f.Add(hdr(2).u(1).d(-1).d(1 << 62).u(0).raw(0).buf)
	f.Add(hdr(1).u(1).raw(overlong...).d(1).buf)
	f.Add((&rawProf{}).magic("WPR3").raw(overlong[:10]...).buf)
	f.Add(append(hdr(100_000).buf, make([]byte, 100_000)...))
	// Must-reject: the old WPR2 and WPRF seeds.
	f.Add(RefAppendWire(p, nil))
	f.Add([]byte("WPR2"))
	f.Add([]byte("WPRF\x00\x00\x00"))
	f.Add((&rawProf{}).magic("WPR2").str("a").str("b").u(211).u(1 << 40).buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Profile
		var err error
		if n := allocatedBy(func() { got, err = ReadBytes(data) }); n > 160*uint64(len(data))+256<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err == nil && (bytes.HasPrefix(data, []byte("WPR2")) || bytes.HasPrefix(data, []byte("WPRF"))) {
			t.Fatal("a legacy payload was accepted")
		}
		windowed, werr := Read(iotest.OneByteReader(bytes.NewReader(data)))
		if fmt.Sprint(werr) != fmt.Sprint(err) {
			t.Fatalf("in place: %v; a byte at a time: %v", err, werr)
		}
		nexted, nerr := nextAll(bytes.NewReader(data))
		if fmt.Sprint(nerr) != fmt.Sprint(err) {
			t.Fatalf("Read err=%v but Next err=%v", err, nerr)
		}
		if err != nil {
			return
		}
		again, err := ReadBytes(got.AppendWire(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		for name, other := range map[string]*Profile{"a byte at a time": windowed, "Next": nexted, "re-encoded": again} {
			if err := sameSamples(other, got); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}
