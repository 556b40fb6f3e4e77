package profile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

func sample() *Profile {
	return &Profile{
		Binary: "app.wb",
		Period: 211,
		Samples: []Sample{
			{Records: []Branch{{From: 0x100, To: 0x200}, {From: 0x250, To: 0x100}}},
			{Records: []Branch{{From: 0x100, To: 0x200}}},
			{Records: nil},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	p := sample()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Binary != p.Binary || got.Period != p.Period || len(got.Samples) != len(p.Samples) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range p.Samples {
		if !reflect.DeepEqual(p.Samples[i].Records, got.Samples[i].Records) &&
			!(len(p.Samples[i].Records) == 0 && len(got.Samples[i].Records) == 0) {
			t.Errorf("sample %d mismatch", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic accepted")
	}
	var buf bytes.Buffer
	sample().Write(&buf)
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut += 3 {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestReadRejectsOversizedSample(t *testing.T) {
	p := &Profile{Samples: []Sample{{Records: make([]Branch, LBRDepth+1)}}}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Error("sample deeper than the LBR accepted")
	}
}

func TestAggregate(t *testing.T) {
	agg := sample().Aggregate()
	if agg[Edge{0x100, 0x200}] != 2 {
		t.Errorf("edge weight = %d, want 2", agg[Edge{0x100, 0x200}])
	}
	if agg[Edge{0x250, 0x100}] != 1 {
		t.Errorf("edge weight = %d, want 1", agg[Edge{0x250, 0x100}])
	}
	if len(agg) != 2 {
		t.Errorf("edges = %d", len(agg))
	}
}

func TestFallRanges(t *testing.T) {
	fr := sample().FallRanges()
	// Between record 0 (To 0x200) and record 1 (From 0x250): [0x200,0x250].
	if fr[FallRange{0x200, 0x250}] != 1 {
		t.Errorf("fall range missing: %+v", fr)
	}
	// Backward pairs (next.From < prev.To) are discarded.
	p := &Profile{Samples: []Sample{{Records: []Branch{{From: 9, To: 100}, {From: 50, To: 1}}}}}
	if len(p.FallRanges()) != 0 {
		t.Error("backward range accepted")
	}
}

func TestSizeBytesGrowsWithSamples(t *testing.T) {
	small := &Profile{Samples: make([]Sample, 1)}
	big := &Profile{Samples: make([]Sample, 100)}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Error("SizeBytes not monotone")
	}
}

// Property: round trip preserves arbitrary valid profiles.
func TestRoundTripProperty(t *testing.T) {
	f := func(pairs []uint64, period uint64) bool {
		p := &Profile{Binary: "x", Period: period}
		var s Sample
		for i := 0; i+1 < len(pairs) && len(s.Records) < LBRDepth; i += 2 {
			s.Records = append(s.Records, Branch{From: pairs[i], To: pairs[i+1]})
			if len(s.Records) == LBRDepth {
				p.Samples = append(p.Samples, s)
				s = Sample{}
			}
		}
		if len(s.Records) > 0 {
			p.Samples = append(p.Samples, s)
		}
		var buf bytes.Buffer
		if err := p.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p.Aggregate(), got.Aggregate())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeIntoMatchesMerge(t *testing.T) {
	a := sample()
	b := &Profile{
		Binary: "app.wb",
		Period: 211,
		Samples: []Sample{
			{Records: []Branch{{From: 0x300, To: 0x400}}},
		},
	}
	want, err := Merge(sample(), b)
	if err != nil {
		t.Fatal(err)
	}
	if err := MergeInto(a, b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("MergeInto = %+v, want %+v", a, want)
	}
}

func TestMergeIntoFillsAndEnforcesIdentity(t *testing.T) {
	dst := &Profile{}
	if err := MergeInto(dst, &Profile{Binary: "b", BuildID: "id1", Period: 7}); err != nil {
		t.Fatal(err)
	}
	if dst.Binary != "b" || dst.BuildID != "id1" || dst.Period != 7 {
		t.Fatalf("identity not filled: %+v", dst)
	}
	if err := MergeInto(dst, &Profile{BuildID: "id2"}); err == nil {
		t.Error("build ID mismatch accepted")
	}
	if err := MergeInto(dst, &Profile{Period: 8}); err == nil {
		t.Error("period mismatch accepted")
	}
	if err := MergeInto(nil, dst); err == nil {
		t.Error("nil dst accepted")
	}
	if err := MergeInto(dst, nil); err == nil {
		t.Error("nil delta accepted")
	}
}

// failAfterWriter errors once n bytes have been accepted — the
// short-write/full-disk case Write must not swallow.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if len(p) >= w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteReportsWriterError: every write failure must surface, no
// matter where in the stream it lands — the old encoder checked only
// the final Flush, so a mid-stream error on an unbuffered writer was
// silently dropped.
func TestWriteReportsWriterError(t *testing.T) {
	p := sample()
	full := p.AppendWire(nil)
	werr := fmt.Errorf("disk full")
	for cut := 0; cut <= len(full); cut += 2 {
		if err := p.Write(&failAfterWriter{n: cut, err: werr}); !errors.Is(err, werr) {
			t.Fatalf("write failing at byte %d: err = %v, want %v", cut, err, werr)
		}
	}
	if err := p.Write(&failAfterWriter{n: len(full) + 1, err: werr}); err != nil {
		t.Errorf("writer with room for the full profile: %v", err)
	}
}

// TestAppendWireMatchesWrite: the allocation-free encoder and the
// io.Writer encoder must emit identical bytes — collectors use the
// former, storage the latter, and the batch identity contract hashes
// the result.
func TestAppendWireMatchesWrite(t *testing.T) {
	for _, p := range []*Profile{sample(), {}, {Binary: "b", BuildID: "id", Period: 1}} {
		var buf bytes.Buffer
		if err := p.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if got := p.AppendWire(nil); !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("AppendWire diverges from Write for %+v", p)
		}
		// Appending after existing bytes must not disturb the prefix.
		pre := []byte("prefix")
		if got := p.AppendWire(pre); !bytes.Equal(got[:6], pre) || !bytes.Equal(got[6:], buf.Bytes()) {
			t.Errorf("AppendWire with prefix corrupted output for %+v", p)
		}
	}
}

// TestAggregateInto: folding several profiles into one caller-owned map
// must equal the sum of their individual aggregates, and nil dst must
// still allocate.
func TestAggregateInto(t *testing.T) {
	a, b := sample(), &Profile{Samples: []Sample{
		{Records: []Branch{{From: 0x100, To: 0x200}, {From: 0x999, To: 0x111}}},
	}}
	dst := a.AggregateInto(nil)
	dst = b.AggregateInto(dst)
	want := a.Aggregate()
	for e, w := range b.Aggregate() {
		want[e] += w
	}
	if !reflect.DeepEqual(dst, want) {
		t.Errorf("AggregateInto = %v, want %v", dst, want)
	}
}

// TestStreamZeroAllocPerSample pins the streamed decode path: once the
// reader is a *bytes.Reader, decoding a batch through NewDecoder and Next
// allocates nothing per sample — the caller hands Next one reused record
// buffer. Per-call costs (header strings,
// the buffer's escape) are constant, so the pin is the marginal rate: a
// 16x larger batch must cost exactly the same allocations.
func TestStreamZeroAllocPerSample(t *testing.T) {
	encode := func(samples int) []byte {
		p := &Profile{Binary: "b", Period: 211}
		for i := 0; i < samples; i++ {
			p.Samples = append(p.Samples, Sample{Records: []Branch{
				{From: uint64(i), To: uint64(i + 1)},
				{From: uint64(i + 2), To: uint64(i)},
			}})
		}
		return p.AppendWire(nil)
	}
	measure := func(wire []byte, wantRecs int) float64 {
		r := bytes.NewReader(wire)
		return testing.AllocsPerRun(10, func() {
			r.Reset(wire)
			d, err := NewDecoder(r)
			if err != nil {
				t.Fatal(err)
			}
			var buf [LBRDepth]Branch
			n := 0
			for {
				recs, err := d.Next(buf[:0])
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				n += len(recs)
			}
			if n != wantRecs {
				t.Fatalf("decoded %d records, want %d", n, wantRecs)
			}
		})
	}
	small := measure(encode(128), 256)
	big := measure(encode(2048), 4096)
	// The larger batch decodes 1920 more samples, so any real per-sample
	// cost would add at least 1920 allocs; a slack of 4 absorbs stray
	// GC-epoch allocations without loosening the zero-per-sample pin.
	if big > small+4 {
		t.Errorf("per-sample decode allocates: %.1f allocs at 128 samples vs %.1f at 2048, want equal",
			small, big)
	}
}
