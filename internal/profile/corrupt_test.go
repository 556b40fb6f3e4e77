package profile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"propeller/internal/wire"
)

// rawProf builds a raw profile image by hand so each field can be corrupted
// independently of what Write is capable of producing.
type rawProf struct{ buf []byte }

func (r *rawProf) magic(m string) *rawProf { r.buf = append(r.buf, m...); return r }
func (r *rawProf) u(v uint64) *rawProf {
	r.buf = binary.AppendUvarint(r.buf, v)
	return r
}
func (r *rawProf) str(s string) *rawProf {
	r.u(uint64(len(s)))
	r.buf = append(r.buf, s...)
	return r
}

// d writes a signed delta the way WPR3 records carry them.
func (r *rawProf) d(v int64) *rawProf {
	r.buf = binary.AppendVarint(r.buf, v)
	return r
}

// raw appends bytes as they are: a varint no writer would produce.
func (r *rawProf) raw(b ...byte) *rawProf { r.buf = append(r.buf, b...); return r }

// hdr is a well-formed WPR3 header declaring n samples.
func hdr(n uint64) *rawProf { return (&rawProf{}).magic("WPR3").str("app").str("id").u(211).u(n) }

// fullWidthSample is one sample short of its last delta, every field before
// it spelled in ten bytes: the last delta starts where a window of the
// longest well-formed sample ends.
func fullWidthSample() *rawProf {
	r := hdr(1).raw(0x80|LBRDepth, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0)
	for i := 0; i < 2*LBRDepth-1; i++ {
		r.u(1 << 63)
	}
	return r
}

// overlong is an 11-byte varint: ten continuation bytes, then a terminator.
var overlong = append(bytes.Repeat([]byte{0x80}, 10), 0x01)

func TestReadCorruptInputs(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string // substring of the expected error
	}{
		{"empty", nil, "truncated magic"},
		{"short magic", []byte("WP"), "truncated magic"},
		{"bad magic", []byte("NOPE"), "bad magic"},
		{"truncated name length", (&rawProf{}).magic("WPR3").buf, "truncated binary name length"},
		{"huge name length", (&rawProf{}).magic("WPR3").u(1 << 40).buf, "binary name length"},
		{"truncated name body", (&rawProf{}).magic("WPR3").u(100).buf, "truncated binary name"},
		{"huge build ID", (&rawProf{}).magic("WPR3").str("app").u(1 << 20).buf, "build ID length"},
		{"truncated period", (&rawProf{}).magic("WPR3").str("app").str("id").buf, "truncated period"},
		{"truncated sample count", (&rawProf{}).magic("WPR3").str("app").str("id").u(211).buf, "truncated sample count"},
		{"absurd sample count", hdr(1 << 40).buf, "implausible sample count"},
		{"missing samples", hdr(3).buf, "truncated record count"},
		{"over-deep sample", hdr(1).u(LBRDepth + 1).buf, "exceeds LBR depth"},
		{"truncated records", hdr(1).u(2).d(5).buf, "truncated record"},
		{"delta truncated mid-varint", hdr(1).u(1).d(0x100).raw(0x80, 0x80).buf, "truncated record in sample 0"},
		{"over-long period", (&rawProf{}).magic("WPR3").str("app").str("id").raw(overlong...).buf, "over-long varint in period"},
		{"over-long record count", hdr(1).raw(overlong...).buf, "over-long varint in record count"},
		{"over-long delta", hdr(1).u(1).raw(overlong...).d(1).buf, "over-long varint in record in sample 0"},
		{"name length of continuation bytes", (&rawProf{}).magic("WPR3").raw(overlong[:10]...).buf, "truncated binary name length"},
		{"delta of continuation bytes at the sample bound", fullWidthSample().raw(overlong[:10]...).buf, "truncated record in sample 0"},
		{"over-long delta at the sample bound", fullWidthSample().raw(overlong...).buf, "over-long varint in record in sample 0"},
		{"legacy magic truncated", (&rawProf{}).magic("WPRF").str("app").u(211).buf, `bad magic "WPRF"`},
		{"trailing byte", hdr(1).u(1).d(0x100).d(0x40).raw(0).buf, "1 trailing bytes"},
		{"second profile", append(hdr(0).buf, hdr(0).buf...), "14 trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(tc.data)); err == nil {
				t.Fatalf("corrupt input accepted")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// The in-place form and a sample-by-sample Next loop must fail
			// the same way, not panic.
			if _, err := ReadBytes(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadBytes: error %v does not mention %q", err, tc.want)
			}
			if _, err := nextAll(bytes.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Next: error %v does not mention %q", err, tc.want)
			}
		})
	}
}

// TestReadLegacyMagics: the two formats this tree used to write are named
// in the refusal, with the one that is read — not reported as garbage, and
// not decoded.
func TestReadLegacyMagics(t *testing.T) {
	old := sample()
	old.BuildID = "deadbeef"
	payloads := map[string][]byte{
		"WPR2": RefAppendWire(old, nil),
		"WPRF": (&rawProf{}).magic("WPRF").str("old.wb").u(97).u(1).u(1).u(0x100).u(0x200).buf,
	}
	for magic, data := range payloads {
		if _, err := RefRead(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: the reference reader rejects its own format: %v", magic, err)
		}
		_, err := Read(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), magic) || !strings.Contains(err.Error(), profMagic) {
			t.Errorf("%s: error %v should name the legacy magic and %s", magic, err, profMagic)
		}
		if _, err := NewDecoder(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: NewDecoder handed over a header", magic)
		}
	}
}

// errAfter yields data, then fails with err instead of io.EOF.
type errAfter struct {
	data []byte
	err  error
}

func (r *errAfter) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadErrorSurfacesAsItself: when the reader fails with anything but
// io.EOF (http.MaxBytesReader's error, a broken connection), that error is
// what the caller gets — matchable, and never described as a truncation —
// wherever in the payload it strikes, including after the last sample.
func TestReadErrorSurfacesAsItself(t *testing.T) {
	p := sample()
	p.BuildID = "aaaa"
	wire := p.AppendWire(nil)
	for k := 0; k <= len(wire); k++ {
		_, err := Read(&errAfter{wire[:k], errRejected})
		if !errors.Is(err, errRejected) || strings.Contains(err.Error(), "truncated") {
			t.Fatalf("reader failing after %d of %d bytes: err = %v", k, len(wire), err)
		}
	}
}

func TestBuildIDRoundTrip(t *testing.T) {
	p := sample()
	p.BuildID = "deadbeef"
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.BuildID != "deadbeef" {
		t.Fatalf("build ID lost: %q", got.BuildID)
	}
}

// TestDecoderHeaderFirst: NewDecoder hands over the header before any
// sample is decoded, so a caller rejects a profile (a wrong build ID)
// without paying for its body. Fed a byte at a time, the decoder has read
// the header and at most one varint's lookahead, and no sample.
func TestDecoderHeaderFirst(t *testing.T) {
	p := sample()
	p.BuildID = "aaaa"
	for i := 0; i < 8; i++ {
		p.Samples = append(p.Samples, p.Samples[0])
	}
	data := p.AppendWire(nil)
	head := len(AppendHeader(nil, Header{Binary: p.Binary, BuildID: p.BuildID, Period: p.Period, Samples: uint64(len(p.Samples))}))
	r := bytes.NewReader(data)
	d, err := NewDecoder(iotest.OneByteReader(r))
	if err != nil {
		t.Fatal(err)
	}
	if h := d.Header; h.BuildID != "aaaa" || h.Samples != 11 {
		t.Fatalf("header not populated: %+v", h)
	}
	if read := len(data) - r.Len(); read > head+wire.MaxVarintLen64+1 || read >= len(data) {
		t.Fatalf("NewDecoder read %d of %d bytes, header %d", read, len(data), head)
	}
	if d.next != 0 {
		t.Fatalf("NewDecoder decoded %d samples", d.next)
	}
}

var errRejected = bytes.ErrTooLarge // any sentinel distinct from nil

func TestMergeDeterministic(t *testing.T) {
	a := &Profile{Binary: "app", BuildID: "x", Period: 211,
		Samples: []Sample{{Records: []Branch{{1, 2}}}}}
	b := &Profile{Binary: "app", BuildID: "x", Period: 211,
		Samples: []Sample{{Records: []Branch{{3, 4}}}, {Records: []Branch{{5, 6}}}}}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Samples) != 3 || m.BuildID != "x" || m.Period != 211 {
		t.Fatalf("merge mismatch: %+v", m)
	}
	want := []Branch{{1, 2}, {3, 4}, {5, 6}}
	for i, s := range m.Samples {
		if !reflect.DeepEqual(s.Records, []Branch{want[i]}) {
			t.Fatalf("sample %d out of order: %+v", i, s.Records)
		}
	}
	// Merging twice in the same order is bit-identical.
	var w1, w2 bytes.Buffer
	m.Write(&w1)
	m2, _ := Merge(a, b)
	m2.Write(&w2)
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("merge not deterministic")
	}
}

func TestMergeRejectsMismatches(t *testing.T) {
	a := &Profile{BuildID: "x", Period: 211}
	if _, err := Merge(a, &Profile{BuildID: "y", Period: 211}); err == nil {
		t.Error("build ID mismatch accepted")
	}
	if _, err := Merge(a, &Profile{BuildID: "x", Period: 97}); err == nil {
		t.Error("period mismatch accepted")
	}
	if _, err := Merge(); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := Merge(a, nil); err == nil {
		t.Error("nil shard accepted")
	}
	// Empty build IDs and periods are wildcards (synthetic inputs).
	if _, err := Merge(a, &Profile{}); err != nil {
		t.Errorf("wildcard shard rejected: %v", err)
	}
}
