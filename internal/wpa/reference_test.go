package wpa

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/profile"
)

// The sample kernel this package had before the dense block table, kept
// verbatim as the oracle of the differential suite: every address becomes
// a BlockRef{Fn string, ID int} and every count a Go map keyed on it. It
// resolves through the string-form queries the Lookup once had, spelled
// below over its index-form ones, uncached — those are themselves held to
// the old per-fragment Lookup in internal/bbaddrmap/reference_test.go.
// The record classification is written out twice below, as it was: once
// in refShard.addSample and once in referencePaths.

type refShard struct {
	infos  map[string]*funcInfo
	agg    *Aggregate
	lookup refLookup
}

// BlockRef identifies a block by owning function name and stable block ID.
type BlockRef struct {
	Fn string
	ID int
}

// refLookup answers the old string-form queries from a Lookup's rows.
type refLookup struct{ *bbaddrmap.Lookup }

func (l refLookup) ref(bi int32) BlockRef {
	b := &l.Blocks()[bi]
	return BlockRef{Fn: l.FuncNames()[b.Fn], ID: b.ID}
}

func (l refLookup) ResolveFull(addr uint64) (ref BlockRef, start, end uint64, ok bool) {
	bi := l.BlockAt(addr)
	if bi == bbaddrmap.NoBlock {
		return BlockRef{}, 0, 0, false
	}
	return l.ref(bi), l.Blocks()[bi].Start, l.Blocks()[bi].End, true
}

func (l refLookup) IsBlockStart(addr uint64) (BlockRef, bool) {
	bi := l.BlockStarting(addr)
	if bi == bbaddrmap.NoBlock {
		return BlockRef{}, false
	}
	return l.ref(bi), true
}

func (l refLookup) BlocksInRange(start, end uint64) []BlockRef {
	var refs []BlockRef
	for _, bi := range l.AppendBlocksIn(nil, start, end) {
		refs = append(refs, l.ref(bi))
	}
	return refs
}

func refEntryOf(infos map[string]*funcInfo, fn string) int {
	if fi := infos[fn]; fi != nil {
		return fi.entryID
	}
	return -1
}

func (sh *refShard) profileOf(fn string) *funcProfile {
	fp := sh.agg.funcs[fn]
	if fp == nil {
		fp = &funcProfile{counts: map[int]uint64{}, edges: map[edgeKey]uint64{}}
		sh.agg.funcs[fn] = fp
	}
	return fp
}

func (sh *refShard) addSample(s profile.Sample) {
	agg := sh.agg
	agg.samples++
	for i, r := range s.Records {
		agg.records++
		// Classify the taken branch.
		fromRef, _, fromEnd, fromOK := sh.lookup.ResolveFull(r.From)
		toRef, toStart := sh.lookup.IsBlockStart(r.To)
		if fromOK && toStart && fromRef.Fn == toRef.Fn && fromEnd-r.From <= 10 {
			sh.profileOf(fromRef.Fn).edges[edgeKey{fromRef.ID, toRef.ID}]++
			agg.branchEdges++
		} else if fromOK && toStart && toRef.ID == refEntryOf(sh.infos, toRef.Fn) {
			agg.calls[callKey{fromRef.Fn, fromRef.ID, toRef.Fn}]++
			agg.callEdgeN++
		}
		if i+1 < len(s.Records) {
			next := s.Records[i+1]
			if next.From >= r.To {
				refs := sh.lookup.BlocksInRange(r.To, next.From)
				for j, ref := range refs {
					fp := sh.profileOf(ref.Fn)
					fp.counts[ref.ID]++
					if j > 0 && refs[j-1].Fn == ref.Fn {
						fp.edges[edgeKey{refs[j-1].ID, ref.ID}]++
						agg.branchEdges++
					}
				}
			}
		} else if toStart {
			sh.profileOf(toRef.Fn).counts[toRef.ID]++
		}
	}
}

// referenceAggregate is the old serial aggregation of samples against m.
func referenceAggregate(m *bbaddrmap.Map, samples []profile.Sample, profileBytes int64) (*Aggregate, error) {
	infos, err := funcInfos(m, everyFunc)
	if err != nil {
		return nil, err
	}
	sh := &refShard{infos: infos, agg: newAggregate(), lookup: refLookup{bbaddrmap.NewLookup(m)}}
	for _, s := range samples {
		sh.addSample(s)
	}
	sh.agg.profileBytes = profileBytes
	return sh.agg, nil
}

type refPathWalker struct {
	opts   PathOptions
	counts map[string]*pathStat
	curFn  string
	cur    []int
}

func (w *refPathWalker) flush() {
	if len(w.cur) >= 2 {
		key := pathKey(w.curFn, w.cur)
		st := w.counts[key]
		if st == nil {
			st = &pathStat{fn: w.curFn, blocks: append([]int(nil), w.cur...)}
			w.counts[key] = st
		}
		st.count++
	}
	w.cur = w.cur[:0]
	w.curFn = ""
}

func (w *refPathWalker) push(fn string, id int) {
	if len(w.cur) >= w.opts.maxLen() {
		w.flush()
		w.curFn = fn
	}
	w.cur = append(w.cur, id)
}

func (w *refPathWalker) branch(fn string, from, to int) {
	if w.curFn != fn || len(w.cur) == 0 || w.cur[len(w.cur)-1] != from {
		w.flush()
		w.curFn = fn
		w.cur = append(w.cur, from)
	}
	w.push(fn, to)
}

func (w *refPathWalker) step(fn string, id int) {
	if w.curFn == fn && len(w.cur) > 0 && w.cur[len(w.cur)-1] == id {
		return
	}
	if w.curFn != fn {
		w.flush()
		w.curFn = fn
	}
	w.push(fn, id)
}

// referencePaths is the old ReconstructPaths up to the per-sample fold:
// it returns every path seen at least once with its count, keyed by
// pathKey — what the selection after the fold (unchanged) starts from.
func referencePaths(m *bbaddrmap.Map, prof *profile.Profile, opts PathOptions) map[string]uint64 {
	res := refLookup{bbaddrmap.NewLookup(m)}
	w := &refPathWalker{opts: opts, counts: map[string]*pathStat{}}
	for _, s := range prof.Samples {
		for i, r := range s.Records {
			fromRef, _, fromEnd, fromOK := res.ResolveFull(r.From)
			toRef, toStart := res.IsBlockStart(r.To)
			if fromOK && toStart && fromRef.Fn == toRef.Fn && fromEnd-r.From <= 10 {
				w.branch(fromRef.Fn, fromRef.ID, toRef.ID)
			} else {
				w.flush()
			}
			if i+1 < len(s.Records) {
				next := s.Records[i+1]
				if next.From < r.To {
					w.flush()
					continue
				}
				for _, ref := range res.BlocksInRange(r.To, next.From) {
					w.step(ref.Fn, ref.ID)
				}
			}
		}
		w.flush()
	}
	out := map[string]uint64{}
	for key, st := range w.counts {
		out[key] = st.count
	}
	return out
}

// checkAgainstReference holds the kernel to the reference on one map and
// profile: the aggregate by EncodeAggregate bytes (the four event counters
// are in them) at several worker counts, in memory, streamed and added
// incrementally in batches of 1, 7, 2 048 and all samples, and the
// reconstructed paths — every path seen, MinCount 1 and no per-function
// cap — by their counts.
func checkAgainstReference(m *bbaddrmap.Map, prof *profile.Profile, workers []int) error {
	want, err := referenceAggregate(m, prof.Samples, prof.SizeBytes())
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	wantMem := EncodeAggregate(want)
	want.profileBytes = streamSampleBytes
	wantStream := EncodeAggregate(want)
	wire := prof.AppendWire(nil)
	lk := bbaddrmap.NewLookup(m)
	for _, w := range workers {
		cfg := Config{Workers: w}
		got, err := BuildAggregate(m, prof, cfg)
		if err != nil {
			return fmt.Errorf("workers %d: %w", w, err)
		}
		if !bytes.Equal(EncodeAggregate(got), wantMem) {
			return fmt.Errorf("workers %d: in-memory aggregate differs from the reference\ngot  %s\nwant %s", w, describe(got), describe(want))
		}
		if got, err = wireAggregate(m, bytes.NewReader(wire), cfg); err != nil {
			return fmt.Errorf("workers %d, streamed: %w", w, err)
		}
		if !bytes.Equal(EncodeAggregate(got), wantStream) {
			return fmt.Errorf("workers %d: streamed aggregate differs from the reference\ngot  %s\nwant %s", w, describe(got), describe(want))
		}
		for _, batch := range []int{1, 7, 2048, max(1, len(prof.Samples))} {
			shards, _ := foldShards(w, func() *bbaddrmap.Lookup { return lk }, func(add func(sampleBatch) sampleBatch) error {
				inBatches(prof.Samples, batch, func(b []profile.Sample) { add(sampleBatch{samples: b}) })
				return nil
			})
			got = mergeShards(shards, lk)
			got.profileBytes = prof.SizeBytes()
			if !bytes.Equal(EncodeAggregate(got), wantMem) {
				return fmt.Errorf("workers %d: aggregate added in batches of %d differs from the reference\ngot  %s\nwant %s", w, batch, describe(got), describe(want))
			}
		}
	}
	all := PathOptions{MinCount: 1, MaxPerFunc: 1 << 30}
	paths, err := ReconstructPaths(m, prof, all)
	if err != nil {
		return err
	}
	gotPaths := map[string]uint64{}
	for fn, ps := range paths {
		for _, p := range ps {
			gotPaths[pathKey(fn, p.Blocks)] = p.Count
		}
	}
	if wantPaths := referencePaths(m, prof, all); !reflect.DeepEqual(gotPaths, wantPaths) {
		return fmt.Errorf("reconstructed paths differ from the reference\ngot  %v\nwant %v", gotPaths, wantPaths)
	}
	return nil
}

func describe(a *Aggregate) string {
	s := fmt.Sprintf("samples=%d records=%d branchEdges=%d callEdges=%d calls=%v", a.samples, a.records, a.branchEdges, a.callEdgeN, a.calls)
	for fn, fp := range a.funcs {
		s += fmt.Sprintf(" %s{%v %v}", fn, fp.counts, fp.edges)
	}
	return s
}

// hostileInput draws a map no linker would emit and a record stream no
// hardware would, from a byte string (exhausted bytes read as zero), so the
// fuzzer steers both. The map has zero-size blocks, several fragments under
// one name, repeated block IDs, overlapping fragment ranges (piles deeper
// than the lookup's scan window included), empty functions and block
// offsets out of order; the stream takes its addresses from every block
// boundary and a byte either side, and from below, between and above every
// range, and has pairs with next.From < r.To, single-record samples and
// empty samples.
func hostileInput(data []byte) (*bbaddrmap.Map, *profile.Profile) {
	pick := func(n int) int {
		if len(data) == 0 || n <= 1 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	m := &bbaddrmap.Map{}
	addr := uint64(0x1000)
	addrs := []uint64{0, 0xFFF}
	for i, nFrag := 0, 1+pick(14); i < nFrag; i++ {
		fe := bbaddrmap.FuncEntry{Name: "f" + string(rune('a'+pick(5))), Addr: addr}
		off := uint64(0)
		for j, nb := 0, pick(6); j < nb; j++ {
			b := bbaddrmap.BlockEntry{ID: j, Offset: off, Size: uint64(pick(20))}
			switch pick(8) {
			case 0:
				b.ID = pick(j + 1) // a repeated ID
			case 1:
				b.Offset = uint64(pick(int(off) + 1)) // out of order, overlapping
			}
			fe.Blocks = append(fe.Blocks, b)
			start := addr + b.Offset
			addrs = append(addrs, start-1, start, start+1, start+b.Size-1, start+b.Size, start+b.Size+1)
			off += b.Size
		}
		m.Funcs = append(m.Funcs, fe)
		switch pick(4) {
		case 0: // the next fragment starts inside this one, or exactly on it
			addr += uint64(pick(int(off) + 1))
		case 1: // ...or within its first bytes: eight of these make a pile
			addr += uint64(pick(3))
		default:
			addr += off + uint64(pick(24))
		}
	}
	addrs = append(addrs, addr, addr+40, ^uint64(0))
	prof := &profile.Profile{Binary: "fuzz", Period: 1000}
	for i, nSamples := 0, pick(48); i < nSamples; i++ {
		var s profile.Sample
		for j, nRec := 0, pick(profile.LBRDepth+1); j < nRec; j++ {
			s.Records = append(s.Records, profile.Branch{From: addrs[pick(len(addrs))], To: addrs[pick(len(addrs))]})
		}
		prof.Samples = append(prof.Samples, s)
	}
	return m, prof
}

// fuzzKeyBound takes the shards' distinct-key bound from an input's first
// byte: a power of two from 1, a drain after every new key, to 2 048, more
// keys than hostileInput's 48 samples can hold, a single drain at the end.
func fuzzKeyBound(data []byte) (bound int, rest []byte) {
	if len(data) == 0 {
		return keyBound, data
	}
	return 1 << (data[0] % 12), data[1:]
}

// FuzzAggregateEquivalence: on any map and any record stream the dense
// kernel and the reference agree byte for byte, and neither panics,
// whenever the shards drain their address tables.
func FuzzAggregateEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 4, 5, 0, 6, 0, 7, 0, 2, 1, 2, 8, 0, 9, 0, 3, 2, 3, 4, 0, 5, 0, 6, 0, 1, 9, 4, 3, 7, 12, 2, 5, 9, 14, 3, 8, 1, 6})
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 6; i++ {
		seed := make([]byte, 200+rng.Intn(400))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bound, data := fuzzKeyBound(data)
		defer func(old int) { keyBound = old }(keyBound)
		keyBound = bound
		m, prof := hostileInput(data)
		if err := checkAgainstReference(m, prof, []int{1, 3}); err != nil {
			t.Fatalf("key bound %d: %v", bound, err)
		}
	})
}

// TestAggregateMatchesReferenceOnHostileInputs runs the fuzz body over a
// few thousand random byte strings, so a plain `go test` covers the corner
// semantics without the fuzzing engine (cut ranges, unresolvable and zero
// addresses, single-record and empty samples), and over the package's
// structured random maps and profiles (real intra-function branches, calls
// and fall-through runs, which random addresses rarely form). It does so at
// the default distinct-key bound, where these inputs drain once, and at 64
// and 1, where the shards drain mid-feed — at 1, after every new key — on
// the first 600 byte strings.
func TestAggregateMatchesReferenceOnHostileInputs(t *testing.T) {
	defer func(old int) { keyBound = old }(keyBound)
	for _, c := range []struct {
		bound, inputs int
		workers       []int
	}{
		{keyBound, 3000, []int{1, 2}},
		{64, 600, []int{1, 2, 8}},
		{1, 600, []int{1, 2, 8}},
	} {
		t.Run(fmt.Sprintf("bound=%d", c.bound), func(t *testing.T) {
			keyBound = c.bound
			rng := rand.New(rand.NewSource(4242))
			for i := 0; i < c.inputs; i++ {
				data := make([]byte, rng.Intn(700))
				rng.Read(data)
				m, prof := hostileInput(data)
				if err := checkAgainstReference(m, prof, c.workers); err != nil {
					t.Fatalf("input %d (%x): %v", i, data, err)
				}
			}
			for trial := 0; trial < 12; trial++ {
				m := randMap(rng, 3+rng.Intn(20))
				if err := checkAgainstReference(m, randProfile(rng, m, 5+rng.Intn(900)), []int{1, 2, 8}); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		})
	}
}

// TestBuildAggregateAllocs holds aggregation over an already-built lookup
// to allocations per shard, not per sample: four times the samples cost
// the same allocations (to within a table doubling or two), and a second
// shard costs a bounded number more. The second shard is measured on the
// shards folded directly, batch i on shard i mod 2: which shard takes a
// batch from foldShards' queue is the scheduler's choice, and under
// AllocsPerRun (GOMAXPROCS=1) one shard often took them all, so the bound
// missed the second shard's table growth it is meant to hold.
func TestBuildAggregateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := randMap(rng, 40)
	lk := bbaddrmap.NewLookup(m)
	small := randProfile(rng, m, 2000)
	large := &profile.Profile{Samples: append(append(append(append([]profile.Sample(nil),
		small.Samples...), small.Samples...), small.Samples...), small.Samples...)}
	allocs := func(prof *profile.Profile) float64 {
		return testing.AllocsPerRun(5, func() {
			src := Samples(prof)
			(Config{Workers: 1}).feed(&src, func() *bbaddrmap.Lookup { return lk })
		})
	}
	var shards []*shard
	folded := func(prof *profile.Profile, w int) float64 {
		return testing.AllocsPerRun(5, func() {
			shards = make([]*shard, w)
			for i := range shards {
				shards[i] = newShard(lk)
			}
			i := 0
			inBatches(prof.Samples, streamBatch, func(b []profile.Sample) {
				shards[i%w].fold(b)
				i++
			})
			for _, sh := range shards {
				sh.finish()
			}
			mergeShards(shards, lk)
		})
	}
	s1, l1 := allocs(small), allocs(large)
	if l1 > s1+16 {
		t.Errorf("1 shard: %.0f allocations for %d samples, %.0f for %d; want them equal to within a few slice doublings", s1, len(small.Samples), l1, len(large.Samples))
	}
	f1, f2 := folded(large, 1), folded(large, 2)
	if shards[1].samples == 0 {
		t.Fatal("the second shard folded no batch")
	}
	if perShard := f2 - f1; perShard > 64 {
		t.Errorf("a second shard costs %.0f allocations; want at most 64", perShard)
	}
	t.Logf("allocations: %d samples/1 shard %.0f, %d samples/1 shard %.0f; folded directly 1 shard %.0f, 2 shards %.0f", len(small.Samples), s1, len(large.Samples), l1, f1, f2)
}

// TestShardTablesStayBounded streams a Wire profile in which no record
// repeats — the worst case for counting by address — and holds each shard's
// address tables to keyBound distinct keys: the shards drain mid-feed,
// resolve every key exactly once, and still match the reference.
func TestShardTablesStayBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := randMap(rng, 40)
	prof := &profile.Profile{Binary: "distinct", Period: 1000}
	addr, records := m.Funcs[0].Addr, 0
	for records < 3*keyBound {
		var s profile.Sample
		for j := 0; j < profile.LBRDepth; j++ {
			// Distinct branches (addr, addr+1) and distinct ranges (addr+1,
			// addr+2), walking through blocks, terminators and the gaps
			// between functions.
			s.Records = append(s.Records, profile.Branch{From: addr, To: addr + 1})
			addr += 2
		}
		records += len(s.Records)
		prof.Samples = append(prof.Samples, s)
	}
	want, err := referenceAggregate(m, prof.Samples, streamSampleBytes)
	if err != nil {
		t.Fatal(err)
	}
	wire, lk := prof.AppendWire(nil), bbaddrmap.NewLookup(m)
	for _, w := range []int{1, 2, 8} {
		dec, err := profile.NewDecoder(bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		shards, err := foldShards(w, func() *bbaddrmap.Lookup { return lk }, func(add func(sampleBatch) sampleBatch) error {
			return decodeInto(add, dec)
		})
		if err != nil {
			t.Fatal(err)
		}
		got := mergeShards(shards, lk)
		got.profileBytes = streamSampleBytes
		if !bytes.Equal(EncodeAggregate(got), EncodeAggregate(want)) {
			t.Fatalf("workers %d: aggregate differs from the reference\ngot  %s\nwant %s", w, describe(got), describe(want))
		}
		for i, sh := range shards {
			if sh.peak > keyBound {
				t.Errorf("workers %d, shard %d: an address table held %d keys; the bound is %d", w, i, sh.peak, keyBound)
			}
		}
		// Every record is its own branch key, and every record but a
		// sample's last its own range key.
		if wantKeys := 2*records - len(prof.Samples); got.keys != wantKeys {
			t.Errorf("workers %d: %d keys resolved, want %d", w, got.keys, wantKeys)
		}
	}
}
