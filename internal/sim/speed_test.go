package sim

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"propeller/internal/profile"
	"propeller/internal/testprog"
)

// runProfileBytes runs one sampled configuration to completion and
// returns the wire encoding of the resulting profile.
func runProfileBytes(t *testing.T, p *Program, cfg Config) []byte {
	t.Helper()
	res, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("sampled run produced no profile")
	}
	return res.Profile.AppendWire(nil)
}

// TestSharedProgramConcurrentRuns is the sharing contract of Program:
// many goroutines run distinct LBR phases off one Load, and every run's
// profile must be byte-identical to the profile the same configuration
// produces on a Program it has to itself. Run under -race this also
// proves the decode table's pages are published safely
// (TestColdStartConcurrentRuns makes every run start on a cold table).
func TestSharedProgramConcurrentRuns(t *testing.T) {
	bin := build(t, testprog.SumLoop(200_000), false)
	shared, err := Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	const hosts = 8
	cfg := func(h int) Config {
		return Config{LBRPeriod: 97, LBRPhase: uint64(h)}
	}

	// Solo reference runs, each on its own freshly loaded Program.
	want := make([][]byte, hosts)
	for h := 0; h < hosts; h++ {
		solo, err := Load(bin)
		if err != nil {
			t.Fatal(err)
		}
		want[h] = runProfileBytes(t, solo, cfg(h))
	}

	got := make([][]byte, hosts)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			res, err := shared.Run(cfg(h))
			if err != nil {
				errs[h] = err
				return
			}
			got[h] = res.Profile.AppendWire(nil)
		}(h)
	}
	wg.Wait()
	for h := 0; h < hosts; h++ {
		if errs[h] != nil {
			t.Fatalf("host %d: %v", h, errs[h])
		}
		if !bytes.Equal(got[h], want[h]) {
			t.Errorf("host %d: concurrent profile differs from solo run", h)
		}
	}
}

// TestStreamingMatchesMaterialized replays the same run in both
// sampling modes: the OnSample stream, copied sample by sample, must
// reconstruct exactly the profile the materialized run returns.
func TestStreamingMatchesMaterialized(t *testing.T) {
	bin := build(t, testprog.SumLoop(100_000), false)
	p, err := Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LBRPeriod: 211, LBRPhase: 3}
	mat, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rebuilt := &profile.Profile{
		Binary:  mat.Profile.Binary,
		BuildID: mat.Profile.BuildID,
		Period:  mat.Profile.Period,
	}
	scfg := cfg
	scfg.OnSample = func(s profile.Sample) error {
		// The callback's record slice is only valid during the call.
		recs := append([]profile.Branch(nil), s.Records...)
		rebuilt.Samples = append(rebuilt.Samples, profile.Sample{Records: recs})
		return nil
	}
	sres, err := p.Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Profile != nil {
		t.Error("streaming run must not materialize Result.Profile")
	}
	if sres.Insts != mat.Insts || sres.Exit != mat.Exit {
		t.Errorf("streaming run diverged: insts %d vs %d, exit %d vs %d",
			sres.Insts, mat.Insts, sres.Exit, mat.Exit)
	}
	if got, want := rebuilt.AppendWire(nil), mat.Profile.AppendWire(nil); !bytes.Equal(got, want) {
		t.Errorf("streamed samples do not reconstruct the materialized profile (%d vs %d samples)",
			len(rebuilt.Samples), len(mat.Profile.Samples))
	}
}

// TestBatchesTileTheProfile: the OnBatch calls of a run, laid end to end,
// are Result.Profile.Samples — the same records in the same memory, none
// missing and none twice — whether the run halts or faults part-way, and
// the profile is the one a run without the callback returns. A second
// goroutine reads every batch while the run goes on, which under -race
// shows that nothing handed over is written again.
func TestBatchesTileTheProfile(t *testing.T) {
	bin := build(t, testprog.SumLoop(300_000), false)
	p, err := Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxInsts := range []uint64{0, 700_001} {
		cfg := Config{LBRPeriod: 97, LBRPhase: 5, MaxInsts: maxInsts}
		plain, plainErr := p.Run(cfg)

		var batches [][]profile.Sample
		handed := make(chan []profile.Sample, 1)
		records := make(chan int)
		go func() {
			n := 0
			for b := range handed {
				for _, s := range b {
					for _, r := range s.Records {
						if r.From != 0 {
							n++
						}
					}
				}
			}
			records <- n
		}()
		cfg.OnBatch = func(b []profile.Sample) {
			if len(b) == 0 || len(b) != cap(b) {
				t.Errorf("batch of %d samples with capacity %d; want a non-empty, capacity-clamped slice", len(b), cap(b))
			}
			batches = append(batches, b)
			handed <- b
		}
		res, err := p.Run(cfg)
		close(handed)
		if (err == nil) != (plainErr == nil) || (maxInsts != 0) != (err != nil) {
			t.Fatalf("budget %d: run returned %v, without the callback %v", maxInsts, err, plainErr)
		}
		if got, want := res.Profile.AppendWire(nil), plain.Profile.AppendWire(nil); !bytes.Equal(got, want) {
			t.Errorf("budget %d: the callback changed the profile", maxInsts)
		}
		at, want := 0, 0
		for _, b := range batches {
			for i := range b {
				if at == len(res.Profile.Samples) {
					t.Fatalf("budget %d: batches hold more than the profile's %d samples", maxInsts, at)
				}
				s := res.Profile.Samples[at]
				if len(b[i].Records) != len(s.Records) || &b[i].Records[0] != &s.Records[0] {
					t.Fatalf("budget %d: batched sample %d is not the profile's", maxInsts, at)
				}
				at, want = at+1, want+len(s.Records)
			}
		}
		if at != len(res.Profile.Samples) || len(batches) < 4 {
			t.Errorf("budget %d: %d batches cover %d of %d samples", maxInsts, len(batches), at, len(res.Profile.Samples))
		}
		if got := <-records; got != want {
			t.Errorf("budget %d: the reader saw %d records, the profile has %d", maxInsts, got, want)
		}
	}
}

// TestSampleListWrittenOnce: a materialized run's Profile.Samples is one
// slice of exactly its length, written once when the run ends; the header
// chunks before it and the list itself cost at most about twice its bytes
// (a slice grown by append costs about five times); and the OnBatch
// batches, laid end to end, are the profile's samples holding the very
// same record slices. Runs end with no sample, on a chunk's last sample
// and in the middle of a chunk. A sample every instruction and a budget of
// n instructions give n samples.
func TestSampleListWrittenOnce(t *testing.T) {
	bin := build(t, testprog.SumLoop(1_000_000), false)
	p, err := Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	headerSize := int64(unsafe.Sizeof(profile.Sample{}))
	branchSize := int64(unsafe.Sizeof(profile.Branch{}))
	allocated := func(cfg Config) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.Run(cfg)
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	onChunkEnd := sampleChunkMin + 2*sampleChunkMin
	for _, n := range []int{0, 1, sampleChunkMin, onChunkEnd, onChunkEnd + 1, 5_000, 70_000} {
		cfg := Config{LBRPeriod: 1, MaxInsts: uint64(n)}
		if n == 0 {
			cfg = Config{LBRPeriod: 1 << 40, MaxInsts: 50_000}
		}
		var batches [][]profile.Sample
		withBatches := cfg
		withBatches.OnBatch = func(b []profile.Sample) { batches = append(batches, b) }
		res, _ := p.Run(withBatches)
		got := res.Profile.Samples
		if len(got) != n || cap(got) != n {
			t.Errorf("%d samples: Profile.Samples has length %d, capacity %d", n, len(got), cap(got))
			continue
		}
		at := 0
		for _, b := range batches {
			for i := range b {
				if at == n {
					t.Fatalf("%d samples: batches hold more", n)
				}
				s := got[at]
				if len(b[i].Records) != len(s.Records) || unsafe.SliceData(b[i].Records) != unsafe.SliceData(s.Records) {
					t.Fatalf("%d samples: batched sample %d is not the profile's", n, at)
				}
				at++
			}
		}
		if at != n {
			t.Errorf("%d samples: batches cover %d", n, at)
		}

		// What the headers cost: a materialized run less the same run
		// streamed, less the record arena's blocks.
		var arena sampleArena
		var arenaBytes int64
		for _, s := range got {
			fresh := !arena.fits(len(s.Records))
			arena.alloc(len(s.Records))
			if fresh {
				arenaBytes += int64(cap(arena.block)) * branchSize
			}
		}
		streamed := cfg
		streamed.OnSample = func(profile.Sample) error { return nil }
		headers := int64(math.MaxInt64)
		for range 3 {
			headers = min(headers, allocated(cfg)-allocated(streamed)-arenaBytes)
		}
		// The slack covers the run's other small allocations, which differ
		// between the two ways of sampling.
		final, slack := int64(n)*headerSize, int64(16<<10)
		if bound := 2*final + sampleChunkMax*headerSize + slack; headers > bound || headers < final-slack {
			t.Errorf("%d samples: headers cost %d bytes for a %d-byte list, want at most %d", n, headers, final, bound)
		}
	}
}

// TestStreamingSampleErrorAborts: a callback error must stop the run
// and surface unchanged.
func TestStreamingSampleErrorAborts(t *testing.T) {
	bin := build(t, testprog.SumLoop(100_000), false)
	p, err := Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("collector full")
	n := 0
	_, err = p.Run(Config{LBRPeriod: 211, OnSample: func(profile.Sample) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	}})
	if err != boom {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if n != 3 {
		t.Errorf("callback ran %d times after erroring at 3", n)
	}
}

// TestLBRSampleZeroAllocSteadyState pins the streaming sample path at
// zero heap allocations per sample: a densely sampled run may allocate
// at most a hair more than a sparsely sampled run of the identical
// execution — everything per-sample (ring snapshot, callback argument)
// lives in run-owned scratch. The materialized path is held to the
// arena's amortized rate: its extra allocations are bounded by arena
// block refills plus Samples-slice growth, orders of magnitude below
// one per sample.
func TestLBRSampleZeroAllocSteadyState(t *testing.T) {
	bin := build(t, testprog.SumLoop(200_000), false)
	p, err := Load(bin)
	if err != nil {
		t.Fatal(err)
	}

	measure := func(cfg Config) (allocs float64, samples int) {
		allocs = testing.AllocsPerRun(3, func() {
			n := 0
			c := cfg
			if c.OnSample != nil {
				c.OnSample = func(profile.Sample) error { n++; return nil }
			}
			res, err := p.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Profile != nil {
				n = len(res.Profile.Samples)
			}
			samples = n
		})
		return allocs, samples
	}
	nop := func(profile.Sample) error { return nil }

	// Streaming: the dense run takes ~10x the samples of the sparse run;
	// per-sample cost must be zero, so the totals may differ only by
	// noise (background allocation during the longer wall time).
	sparseA, sparseN := measure(Config{LBRPeriod: 997, OnSample: nop})
	denseA, denseN := measure(Config{LBRPeriod: 101, OnSample: nop})
	if denseN <= sparseN {
		t.Fatalf("probe broken: dense %d samples <= sparse %d", denseN, sparseN)
	}
	if extra := denseA - sparseA; extra > 2 {
		t.Errorf("streaming: %.1f extra allocs for %d extra samples, want 0 per sample",
			extra, denseN-sparseN)
	}

	// Materialized: arena-amortized, far below one alloc per sample.
	sparseA, sparseN = measure(Config{LBRPeriod: 997})
	denseA, denseN = measure(Config{LBRPeriod: 101})
	if perSample := (denseA - sparseA) / float64(denseN-sparseN); perSample > 0.05 {
		t.Errorf("materialized: %.3f allocs per marginal sample, want arena-amortized (<0.05)", perSample)
	}
}
