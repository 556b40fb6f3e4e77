package wpa

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/layoutfile"
	"propeller/internal/profile"
)

// randMap builds a synthetic BB address map with nf functions of 2-9
// 16-byte blocks each, functions at base+f*0x1000.
func randMap(rng *rand.Rand, nf int) *bbaddrmap.Map {
	m := &bbaddrmap.Map{}
	for f := 0; f < nf; f++ {
		fe := bbaddrmap.FuncEntry{Name: fnName(f), Addr: uint64(0x1000 * (f + 1))}
		nb := 2 + rng.Intn(8)
		for b := 0; b < nb; b++ {
			fe.Blocks = append(fe.Blocks, bbaddrmap.BlockEntry{ID: b, Offset: uint64(16 * b), Size: 16})
		}
		m.Funcs = append(m.Funcs, fe)
	}
	return m
}

func fnName(f int) string {
	return "fn" + string(rune('A'+f%26)) + string(rune('a'+(f/26)%26))
}

// randProfile emits samples whose records resolve against randMap's
// layout: intra-function back/forward branches from block terminator
// regions, cross-function calls into entries, and fall-through ranges
// (consecutive records with next.From >= r.To).
func randProfile(rng *rand.Rand, m *bbaddrmap.Map, samples int) *profile.Profile {
	p := &profile.Profile{Binary: "rand", Period: 1000}
	blockStart := func(f, b int) uint64 { return m.Funcs[f].Addr + uint64(16*b) }
	blockBranch := func(f, b int) uint64 { return blockStart(f, b) + 16 - 1 - uint64(rng.Intn(9)) }
	for i := 0; i < samples; i++ {
		var s profile.Sample
		f := rng.Intn(len(m.Funcs))
		nrec := 1 + rng.Intn(profile.LBRDepth/2)
		for j := 0; j < nrec; j++ {
			nb := len(m.Funcs[f].Blocks)
			src := rng.Intn(nb)
			switch rng.Intn(4) {
			case 0: // call into another function's entry
				callee := rng.Intn(len(m.Funcs))
				s.Records = append(s.Records, profile.Branch{From: blockBranch(f, src), To: blockStart(callee, 0)})
				f = callee
			case 1: // unresolvable noise (gap between functions)
				s.Records = append(s.Records, profile.Branch{From: blockBranch(f, src) + 0x800, To: blockStart(f, 0) + 7})
			default: // intra-function branch to a random block start
				dst := rng.Intn(nb)
				s.Records = append(s.Records, profile.Branch{From: blockBranch(f, src), To: blockStart(f, dst)})
				// Sometimes follow with a fall-through range inside f.
				if dst+1 < nb && rng.Intn(2) == 0 {
					j++
					fallEnd := dst + 1 + rng.Intn(nb-dst-1)
					s.Records = append(s.Records, profile.Branch{From: blockBranch(f, fallEnd), To: blockStart(f, rng.Intn(nb))})
				}
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p
}

// renderResult serializes both Phase-4 artifacts, the byte-level outputs
// Phase 4 actually consumes.
func renderResult(t *testing.T, res *Result) (ccProf, ldProf []byte) {
	t.Helper()
	var cc, ld bytes.Buffer
	if err := layoutfile.WriteDirectives(&cc, res.Directives); err != nil {
		t.Fatal(err)
	}
	if err := layoutfile.WriteOrder(&ld, res.Order); err != nil {
		t.Fatal(err)
	}
	return cc.Bytes(), ld.Bytes()
}

// statsComparable strips the measured wall times, which legitimately vary
// between runs, and the worker counts, which differ by configuration;
// everything else — including the worker-independent layout shard shape —
// must match exactly.
func statsComparable(st Stats) Stats {
	st.Workers = 0
	st.LayoutWorkers = 0
	st.AggregateWall = 0
	st.MergeWall = 0
	st.LayoutWall = 0
	st.AnalysisSeconds = 0
	return st
}

// TestParallelAnalyzeBitIdentical is the determinism property test: for
// randomized profiles, Workers = 2, 4, 8 must produce byte-identical
// cc_prof.txt / ld_prof.txt artifacts (and equal aggregation stats) to
// Workers = 1. Run with -race to exercise the sharded aggregation and
// the layout worker pool.
func TestParallelAnalyzeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8131))
	for trial := 0; trial < 6; trial++ {
		m := randMap(rng, 3+rng.Intn(20))
		prof := randProfile(rng, m, 5+rng.Intn(400))
		for _, interProc := range []bool{false, true} {
			serial, err := Analyze(m, prof, Config{Workers: 1, InterProc: interProc})
			if err != nil {
				t.Fatal(err)
			}
			wantCC, wantLD := renderResult(t, serial)
			for _, w := range []int{2, 4, 8} {
				par, err := Analyze(m, prof, Config{Workers: w, InterProc: interProc})
				if err != nil {
					t.Fatal(err)
				}
				gotCC, gotLD := renderResult(t, par)
				if !bytes.Equal(gotCC, wantCC) {
					t.Fatalf("trial %d interproc=%v workers=%d: cc_prof.txt differs from serial\nserial:\n%s\nparallel:\n%s",
						trial, interProc, w, wantCC, gotCC)
				}
				if !bytes.Equal(gotLD, wantLD) {
					t.Fatalf("trial %d interproc=%v workers=%d: ld_prof.txt differs from serial\nserial:\n%s\nparallel:\n%s",
						trial, interProc, w, wantLD, gotLD)
				}
				if got, want := statsComparable(par.Stats), statsComparable(serial.Stats); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d interproc=%v workers=%d: stats diverged\nserial   %+v\nparallel %+v",
						trial, interProc, w, want, got)
				}
			}
		}
	}
}

// TestParallelAnalyzeStreamBitIdentical covers the two sample feeds — the
// in-memory profile handed out in contiguous sub-slices and the chunked
// reader fanned out in copied batches — at every worker count: both must
// fold to the same aggregate byte for byte (modulo the profile-size
// accounting, which records how the bytes arrived), and in both layout
// modes the analysis over either must emit the serial stream's artifacts.
func TestParallelAnalyzeStreamBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	m := randMap(rng, 12)
	// Enough samples to span several 512-sample stream batches.
	prof := randProfile(rng, m, 1700)
	var raw bytes.Buffer
	if err := prof.Write(&raw); err != nil {
		t.Fatal(err)
	}
	workers := []int{1, 2, 4, 8}

	var wantAgg []byte
	for _, w := range workers {
		mem, err := BuildAggregate(m, prof, Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := buildAggregateStream(m, bytes.NewReader(raw.Bytes()), Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for feed, agg := range map[string]*Aggregate{"in-memory": mem, "reader": streamed} {
			agg.profileBytes = 0
			enc := EncodeAggregate(agg)
			if wantAgg == nil {
				wantAgg = enc
			}
			if !bytes.Equal(enc, wantAgg) {
				t.Fatalf("workers=%d: %s feed's aggregate differs from the first", w, feed)
			}
		}
	}

	for _, interProc := range []bool{false, true} {
		serial, err := AnalyzeStream(m, bytes.NewReader(raw.Bytes()), Config{Workers: 1, InterProc: interProc})
		if err != nil {
			t.Fatal(err)
		}
		wantCC, wantLD := renderResult(t, serial)
		for _, w := range workers {
			cfg := Config{Workers: w, InterProc: interProc}
			streamed, err := AnalyzeStream(m, bytes.NewReader(raw.Bytes()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotCC, gotLD := renderResult(t, streamed)
			if !bytes.Equal(gotCC, wantCC) || !bytes.Equal(gotLD, wantLD) {
				t.Fatalf("interproc=%v workers=%d: streamed artifacts differ from serial stream", interProc, w)
			}
			if got, want := statsComparable(streamed.Stats), statsComparable(serial.Stats); !reflect.DeepEqual(got, want) {
				t.Fatalf("interproc=%v workers=%d: stream stats diverged\nserial   %+v\nparallel %+v", interProc, w, want, got)
			}
			inMem, err := Analyze(m, prof, cfg)
			if err != nil {
				t.Fatal(err)
			}
			memCC, memLD := renderResult(t, inMem)
			if !bytes.Equal(memCC, wantCC) || !bytes.Equal(memLD, wantLD) {
				t.Fatalf("interproc=%v workers=%d: in-memory analysis differs from streamed analysis", interProc, w)
			}
		}
	}
}

// interProcEdgeMap is a hand-built binary for the inter-proc edge cases:
// alpha has an entry chain (0->1), a hotter disconnected block island
// (2->3) that the global layout places before the entry run, and a cold
// block 4 that never executes; beta is called from alpha; gamma is its
// own component.
func interProcEdgeMap() *bbaddrmap.Map {
	m := &bbaddrmap.Map{}
	add := func(name string, addr uint64, nb int) {
		fe := bbaddrmap.FuncEntry{Name: name, Addr: addr}
		for b := 0; b < nb; b++ {
			fe.Blocks = append(fe.Blocks, bbaddrmap.BlockEntry{ID: b, Offset: uint64(16 * b), Size: 16})
		}
		m.Funcs = append(m.Funcs, fe)
	}
	add("alpha", 0x1000, 5)
	add("beta", 0x2000, 2)
	add("gamma", 0x3000, 2)
	return m
}

func interProcEdgeProfile(m *bbaddrmap.Map) *profile.Profile {
	p := &profile.Profile{Binary: "edge", Period: 1000}
	start := func(f, b int) uint64 { return m.Funcs[f].Addr + uint64(16*b) }
	branch := func(f, b int) uint64 { return start(f, b) + 15 }
	rec := func(from, to uint64, n int) {
		for i := 0; i < n; i++ {
			p.Samples = append(p.Samples, profile.Sample{Records: []profile.Branch{{From: from, To: to}}})
		}
	}
	// alpha's hot island: a 2<->3 loop, no path from the entry chain.
	// Two records per sample so the fall-through range credits both
	// blocks (lone records only count their target).
	for i := 0; i < 100; i++ {
		p.Samples = append(p.Samples, profile.Sample{Records: []profile.Branch{
			{From: branch(0, 2), To: start(0, 3)},
			{From: branch(0, 3), To: start(0, 2)},
		}})
	}
	rec(branch(0, 0), start(0, 1), 2)  // alpha's entry chain
	rec(branch(0, 1), start(1, 0), 50) // call site alpha[1] -> beta entry
	rec(branch(1, 0), start(1, 1), 50) // beta 0->1
	rec(branch(2, 0), start(2, 1), 10) // gamma, a separate component
	return p
}

// TestInterProcEntryRunAndColdSplit pins the two inter-proc emission edge
// cases on a hand-built graph: a non-entry run that the global chain
// places before the function's entry run must be emitted as a secondary
// `fn.N` symbol while the directive file still leads with the entry
// cluster, and a function with unexecuted blocks must grow a trailing
// `fn.cold` symbol. Both must survive the parallel path bit-identically,
// and the shard stats must reflect the component partition, not the
// configured worker count.
func TestInterProcEntryRunAndColdSplit(t *testing.T) {
	m := interProcEdgeMap()
	prof := interProcEdgeProfile(m)
	serial, err := Analyze(m, prof, Config{Workers: 1, InterProc: true})
	if err != nil {
		t.Fatal(err)
	}
	wantCC, wantLD := renderResult(t, serial)

	// The entry cluster leads the directive even though the island run
	// comes first in the global order.
	if got := serial.Directives["alpha"].Clusters; !reflect.DeepEqual(got, [][]int{{0, 1}, {2, 3}}) {
		t.Fatalf("alpha clusters = %v, want [[0 1] [2 3]]", got)
	}
	idx := map[string]int{}
	for i, s := range serial.Order.Symbols {
		idx[s] = i
	}
	for _, s := range []string{"alpha", "alpha.1", "alpha.cold", "beta", "gamma"} {
		if _, ok := idx[s]; !ok {
			t.Fatalf("ld_prof symbols %v missing %q", serial.Order.Symbols, s)
		}
	}
	if idx["alpha.1"] >= idx["alpha"] {
		t.Fatalf("entry-run reorder not observed: alpha.1 at %d, alpha at %d", idx["alpha.1"], idx["alpha"])
	}
	if idx["alpha.cold"] < idx["gamma"] {
		t.Fatalf("cold symbol not trailing: %v", serial.Order.Symbols)
	}
	if got, want := serial.Stats.LayoutShards, 3; got != want {
		t.Fatalf("LayoutShards = %d, want %d", got, want)
	}
	if got, want := serial.Stats.LayoutShardNodes, []int{4, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LayoutShardNodes = %v, want %v", got, want)
	}
	if serial.Stats.LayoutWorkers != 1 {
		t.Fatalf("serial LayoutWorkers = %d, want 1", serial.Stats.LayoutWorkers)
	}

	for _, w := range []int{2, 4, 8} {
		par, err := Analyze(m, prof, Config{Workers: w, InterProc: true})
		if err != nil {
			t.Fatal(err)
		}
		gotCC, gotLD := renderResult(t, par)
		if !bytes.Equal(gotCC, wantCC) || !bytes.Equal(gotLD, wantLD) {
			t.Fatalf("workers=%d: edge-case artifacts differ from serial\nserial ld:\n%s\nparallel ld:\n%s", w, wantLD, gotLD)
		}
		// Effective layout parallelism is clamped to the shard count.
		want := w
		if want > par.Stats.LayoutShards {
			want = par.Stats.LayoutShards
		}
		if par.Stats.LayoutWorkers != want {
			t.Fatalf("workers=%d: LayoutWorkers = %d, want %d (shards=%d)",
				w, par.Stats.LayoutWorkers, want, par.Stats.LayoutShards)
		}
	}
}

// TestWorkersDefaultAndStats checks the Workers plumbing: 0 resolves to a
// positive effective count, and the per-phase breakdown sums into
// AnalysisSeconds.
func TestWorkersDefaultAndStats(t *testing.T) {
	res, err := Analyze(synthMap(), synthProfile(50), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers < 1 {
		t.Errorf("effective workers = %d, want >= 1", res.Stats.Workers)
	}
	want := (res.Stats.AggregateWall + res.Stats.MergeWall + res.Stats.LayoutWall).Seconds()
	if res.Stats.AnalysisSeconds != want {
		t.Errorf("AnalysisSeconds = %v, want %v", res.Stats.AnalysisSeconds, want)
	}
	res8, err := Analyze(synthMap(), synthProfile(50), Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res8.Stats.Workers != 8 {
		t.Errorf("effective workers = %d, want 8", res8.Stats.Workers)
	}
}
