package profile

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
)

// hostileValues are the addresses whose differences wrap, overflow int64 or
// zig-zag to ten bytes: no LBR produces them, the codec must carry them.
var hostileValues = []uint64{0, 1, 2, 0x7f, 0x80, 1<<31 - 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<63 + 1, ^uint64(0) - 1, ^uint64(0)}

func hostileRecords(rng *rand.Rand, n int) []Branch {
	draw := func() uint64 {
		if rng.Intn(3) == 0 {
			return rng.Uint64()
		}
		return hostileValues[rng.Intn(len(hostileValues))]
	}
	recs := make([]Branch, n)
	for i := range recs {
		recs[i] = Branch{From: draw(), To: draw()}
	}
	return recs
}

func sameSamples(got, want *Profile) error {
	if got.Binary != want.Binary || got.BuildID != want.BuildID || got.Period != want.Period {
		return fmt.Errorf("header %q %q %d, want %q %q %d", got.Binary, got.BuildID, got.Period, want.Binary, want.BuildID, want.Period)
	}
	if len(got.Samples) != len(want.Samples) {
		return fmt.Errorf("%d samples, want %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		g, w := got.Samples[i].Records, want.Samples[i].Records
		if len(g) != len(w) || (len(w) > 0 && !reflect.DeepEqual(g, w)) {
			return fmt.Errorf("sample %d: %v, want %v", i, g, w)
		}
	}
	return nil
}

// TestRoundTripHostile: the delta rule is lossless for any uint64 pairs in
// any order, at every depth the LBR has — proven on the values where the
// wrapping differences are largest, not assumed from well-formed chains.
func TestRoundTripHostile(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 50; round++ {
		p := &Profile{Binary: "hostile", BuildID: "h", Period: ^uint64(0)}
		for depth := 0; depth <= LBRDepth; depth++ {
			p.Samples = append(p.Samples, Sample{Records: hostileRecords(rng, depth)})
		}
		// Every ordered pair of hostile values, as (From, To) and as a chain.
		var all []Branch
		for _, a := range hostileValues {
			for _, b := range hostileValues {
				all = append(all, Branch{a, b})
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for len(all) > 0 {
			n := min(LBRDepth, len(all))
			p.Samples = append(p.Samples, Sample{Records: all[:n]})
			all = all[n:]
		}
		wire := p.AppendWire(nil)
		got, err := ReadBytes(wire)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSamples(got, p); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if again := got.AppendWire(nil); !bytes.Equal(again, wire) {
			t.Fatalf("round %d: re-encoding is not a fixed point", round)
		}
	}
}

// decodeWindow is Read with the stream window forced to size bytes.
// nextAll decodes r sample by sample through NewDecoder and Next, one
// reused record buffer as a Wire source reads, copying each sample out.
func nextAll(r io.Reader) (*Profile, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	h := d.Header
	p := &Profile{Binary: h.Binary, BuildID: h.BuildID, Period: h.Period}
	var buf [LBRDepth]Branch
	for {
		recs, err := d.Next(buf[:0])
		if err == io.EOF {
			return p, nil
		}
		if err != nil {
			return nil, err
		}
		p.Samples = append(p.Samples, Sample{Records: append([]Branch(nil), recs...)})
	}
}

func decodeWindow(r io.Reader, size int) (*Profile, error) {
	if size == 0 {
		return Read(r)
	}
	d, err := newDecoder(r, nil, size)
	if err != nil {
		return nil, err
	}
	return d.Profile()
}

// TestWindowBoundaries: however the bytes arrive — in place, one at a time,
// in halves, with the error riding on the last data — and wherever the
// window's edge falls inside a sample, the samples are the same; and cut
// anywhere, the error is the same one the in-place decode reports.
func TestWindowBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := &Profile{Binary: string(bytes.Repeat([]byte("n"), 300)), BuildID: "b1d", Period: 211}
	p.Samples = append(p.Samples, sample().Samples...)
	for _, depth := range []int{LBRDepth, 0, 1, LBRDepth, 5} {
		p.Samples = append(p.Samples, Sample{Records: hostileRecords(rng, depth)})
	}
	wire := p.AppendWire(nil)
	readers := []struct {
		name string
		wrap func([]byte) io.Reader
	}{
		{"bytes.Reader", func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"bytes.Buffer", func(b []byte) io.Reader { return bytes.NewBuffer(b) }},
		{"OneByteReader", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"HalfReader", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
		{"DataErrReader", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
	}
	one := maxSampleBytes
	windows := []int{0, 1, 7, one - 1, one, one + 1}
	for k := 0; k <= len(wire); k++ {
		want, wantErr := ReadBytes(wire[:k])
		if (wantErr == nil) != (k == len(wire)) {
			t.Fatalf("wire[:%d] of %d: err = %v", k, len(wire), wantErr)
		}
		if k == len(wire) {
			if err := sameSamples(want, p); err != nil {
				t.Fatal(err)
			}
		}
		for _, rd := range readers {
			for _, size := range windows {
				got, err := decodeWindow(rd.wrap(wire[:k]), size)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("wire[:%d] through %s, window %d: err = %v, in place: %v", k, rd.name, size, err, wantErr)
				}
				if err == nil {
					if err := sameSamples(got, want); err != nil {
						t.Fatalf("through %s, window %d: %v", rd.name, size, err)
					}
				}
			}
		}
	}
}

// allocatedBy returns the heap bytes fn allocated (garbage included).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestIngestDecodeAllocs pins what an ingestion worker pays to decode one
// in-memory batch: the decoder, the profile, its two header strings, the
// samples slice and one arena block per arenaBlockRecords records — and no
// window, which would be another 64 KB per batch. The blocks are sized to
// the declared samples, so they add up to the records at full depth: at
// the ingest batch size, and at 300 samples, where the last of three blocks
// is a partial one.
func TestIngestDecodeAllocs(t *testing.T) {
	for _, n := range []int{64, 300} {
		p := &Profile{Binary: "pm", BuildID: "feedface", Period: 211}
		for i := 0; i < n; i++ {
			s := Sample{}
			for j := uint64(0); j < LBRDepth; j++ {
				s.Records = append(s.Records, Branch{From: 0x1000 + 40*j, To: 0x1010 + 40*j})
			}
			p.Samples = append(p.Samples, s)
		}
		wire := p.AppendWire(nil)
		blocks := (n*LBRDepth + arenaBlockRecords - 1) / arenaBlockRecords
		decode := func() {
			if _, err := ReadBytes(wire); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := testing.AllocsPerRun(20, decode), float64(5+blocks); got > want {
			t.Errorf("%d samples: ReadBytes: %.0f allocations, want at most %.0f", n, got, want)
		}
		const runs = 20
		perRun := allocatedBy(func() {
			for i := 0; i < runs; i++ {
				decode()
			}
		}) / runs
		// The slack is size-class rounding and the small allocations.
		if budget := uint64(n*LBRDepth*16 + n*24 + 4096); perRun > budget {
			t.Errorf("%d samples: ReadBytes allocated %d bytes, want at most %d: samples and right-sized blocks only", n, perRun, budget)
		}
	}
}

// TestConcurrentDecoders runs what a fleet generation runs at once —
// ingestion workers decoding batches in place, the analyzer's stream feed,
// a fetch reading a response body — each on its own Decoder. Under -race
// this is the check that decoders share no window and no package scratch.
func TestConcurrentDecoders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var wires [][]byte
	var wants []*Profile
	for i := 0; i < 4; i++ {
		p := &Profile{Binary: "pm", BuildID: fmt.Sprint("id", i), Period: 211}
		for n := 0; n < 200+100*i; n++ {
			p.Samples = append(p.Samples, Sample{Records: hostileRecords(rng, rng.Intn(LBRDepth+1))})
		}
		wires = append(wires, p.AppendWire(nil))
		wants = append(wants, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(wires)
				var got *Profile
				var err error
				switch g % 4 {
				case 0, 1:
					got, err = ReadBytes(wires[i])
				case 2:
					got, err = decodeWindow(iotest.HalfReader(bytes.NewReader(wires[i])), 1024)
				case 3:
					got, err = nextAll(bytes.NewReader(wires[i]))
				}
				if err == nil {
					err = sameSamples(got, wants[i])
				}
				if err != nil {
					t.Errorf("goroutine %d, profile %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
