// The "aggregate samples" action: the position-independent profile
// aggregate that the incremental Phase 3 caches and delta-merges.
//
// Aggregation resolves raw LBR addresses against the BB address map of
// the binary the profile was collected on, producing per-function block
// counts and edges keyed by *stable block IDs* rather than addresses.
// That makes the result meaningful across relinks: after a source edit
// the aggregate built against the profiled binary's map projects cleanly
// onto the edited binary's map (functions that vanished are dropped,
// vanished block IDs are ignored), so the expensive sample pass is paid
// once per profile epoch, not once per build.
//
// The per-record pass never touches a name, an ID or even a block: a
// shard counts records by their raw addresses — each (from, to) branch and
// each (to, next from) fall-through range — in two open-addressing tables.
// A profile repeats a few thousand distinct keys millions of times (a loop's
// sampled branches recur for as long as the loop runs), so a drain resolves
// each distinct key once, through the record walker, and credits its count
// into slices and packed-key tables indexed by rows of the binary's block
// table (bbaddrmap.Lookup). A shard drains when either address table reaches
// keyBound distinct keys and when its feed ends, so its memory is bounded
// whatever the stream. Shards share the row index space so they merge by
// vector add, and are converted to the stable-ID Aggregate once, when the
// pass is over.
// The Aggregate, not the dense counters, is what gets cached and merged
// across epochs: rows mean something only against one binary's layout.
package wpa

import (
	"sort"
	"time"

	"propeller/internal/bbaddrmap"
	"propeller/internal/par"
	"propeller/internal/profile"
	"propeller/internal/wire"
)

// funcProfile is one function's position-independent profile
// contribution: execution counts and intra-function edges keyed by
// stable block ID.
type funcProfile struct {
	counts map[int]uint64
	edges  map[edgeKey]uint64
}

// Aggregate is the output of the "aggregate samples" action: every
// sampled function's block counts and edges plus the call-edge map,
// decoupled from absolute addresses. It is the unit the incremental
// cache stores under the profile epoch, and the unit delta ingestion
// merges into (Merge).
type Aggregate struct {
	funcs map[string]*funcProfile
	calls map[callKey]uint64

	samples      int
	records      int
	branchEdges  int
	callEdgeN    int
	profileBytes int64

	// Transient run accounting for the aggregation that produced this
	// in-memory value; not serialized, zero on a decoded aggregate.
	aggregateWall time.Duration
	mergeWall     time.Duration
	workers       int
	keys          int // distinct address keys the shards resolved
}

// Samples reports how many LBR samples the aggregate folds.
func (a *Aggregate) Samples() int { return a.samples }

// Funcs reports how many functions have at least one sampled block.
func (a *Aggregate) Funcs() int { return len(a.funcs) }

// HotFuncs returns the n hottest sampled functions by total block count,
// ties broken by name, hottest first. The policy search uses it to pick
// which functions are worth a per-function policy override; n <= 0 or
// n > len returns every sampled function.
func (a *Aggregate) HotFuncs(n int) []string {
	type hot struct {
		name  string
		count uint64
	}
	hots := make([]hot, 0, len(a.funcs))
	for fn, fp := range a.funcs {
		var total uint64
		for _, v := range fp.counts {
			total += v
		}
		hots = append(hots, hot{fn, total})
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].count != hots[j].count {
			return hots[i].count > hots[j].count
		}
		return hots[i].name < hots[j].name
	})
	if n <= 0 || n > len(hots) {
		n = len(hots)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = hots[i].name
	}
	return names
}

func newAggregate() *Aggregate {
	return &Aggregate{funcs: map[string]*funcProfile{}, calls: map[callKey]uint64{}}
}

// project maps the aggregate's counts onto the functions in infos,
// keeping only functions that exist in this binary's map and dropping
// counts for block IDs the (possibly newer) map no longer has.
func (a *Aggregate) project(infos map[string]*funcInfo) map[string]*dcfg {
	graphs := make(map[string]*dcfg, len(a.funcs))
	for fn, fp := range a.funcs {
		fi := infos[fn]
		if fi == nil {
			continue
		}
		counts := fp.counts
		for id := range fp.counts {
			if _, ok := fi.index(id); !ok {
				counts = make(map[int]uint64, len(fp.counts))
				for id2, v := range fp.counts {
					if _, ok := fi.index(id2); ok {
						counts[id2] = v
					}
				}
				break
			}
		}
		graphs[fn] = &dcfg{info: fi, counts: counts, edges: fp.edges}
	}
	return graphs
}

// Clone deep-copies the aggregate, so a cached epoch can be delta-merged
// into without mutating the stored value.
func (a *Aggregate) Clone() *Aggregate {
	c := *a
	c.funcs = make(map[string]*funcProfile, len(a.funcs))
	for fn, fp := range a.funcs {
		nc := make(map[int]uint64, len(fp.counts))
		for id, v := range fp.counts {
			nc[id] = v
		}
		ne := make(map[edgeKey]uint64, len(fp.edges))
		for k, v := range fp.edges {
			ne[k] = v
		}
		c.funcs[fn] = &funcProfile{counts: nc, edges: ne}
	}
	c.calls = make(map[callKey]uint64, len(a.calls))
	for k, v := range a.calls {
		c.calls[k] = v
	}
	return &c
}

// Merge folds the delta aggregate d into a. Every contribution is a
// commutative uint64 sum, so merging a new profiling epoch into a cached
// aggregate yields exactly what re-aggregating the concatenated profiles
// would — the delta-ingestion primitive.
func (a *Aggregate) Merge(d *Aggregate) {
	for fn, dp := range d.funcs {
		fp := a.funcs[fn]
		if fp == nil {
			fp = &funcProfile{counts: map[int]uint64{}, edges: map[edgeKey]uint64{}}
			a.funcs[fn] = fp
		}
		for id, v := range dp.counts {
			fp.counts[id] += v
		}
		for k, v := range dp.edges {
			fp.edges[k] += v
		}
	}
	for k, v := range d.calls {
		a.calls[k] += v
	}
	a.samples += d.samples
	a.records += d.records
	a.branchEdges += d.branchEdges
	a.callEdgeN += d.callEdgeN
	a.profileBytes += d.profileBytes
}

// BuildAggregate runs the sample-aggregation half of the analysis over
// an in-memory profile, as Analyze feeds a Samples source: with
// cfg.Workers != 1 the sample batches are aggregated by private shards,
// then merged deterministically; the output is bit-identical to the serial
// path.
func BuildAggregate(m *bbaddrmap.Map, prof *profile.Profile, cfg Config) (*Aggregate, error) {
	if err := cfg.checkBuildID(prof.BuildID); err != nil {
		return nil, err
	}
	if err := checkMap(m); err != nil {
		return nil, err
	}
	src, lk := Samples(prof), bbaddrmap.NewLookup(m)
	return cfg.feed(&src, func() *bbaddrmap.Lookup { return lk })
}

// sampleBatch is what the shards fold: samples and, when the feed decoded
// them itself, the block their records live in, to be refilled.
type sampleBatch struct {
	samples []profile.Sample
	recs    []profile.Branch
}

// foldShards folds what feed hands its add over w private shards. add hands
// a batch to a shard and returns one the feed may refill (the zero batch
// when none has been folded yet); the feed must not write a batch again
// unless add hands it back. lookup returns the block table the shards count
// into, the same one on every call; the first shard to call it may build
// it, so a feed that is already running does not wait.
//
// With w == 1 the feed folds on the caller and add returns the batch itself.
// Otherwise the feed is task 0 of one par.Do and tasks 1…w are the shards:
// each folds batches from one queue, which add blocks on only while w are
// queued, and finishes on its own goroutine. Every contribution is a
// commutative uint64 sum, so what mergeShards makes of the shards does not
// depend on how the samples were cut into batches or on which shard took
// which. Beyond the result it allocates per shard, not per sample.
func foldShards(w int, lookup func() *bbaddrmap.Lookup, feed func(add func(sampleBatch) sampleBatch) error) ([]*shard, error) {
	shards := make([]*shard, w)
	if w == 1 {
		sh := newShard(lookup())
		shards[0] = sh
		err := feed(func(b sampleBatch) sampleBatch {
			sh.fold(b.samples)
			return b
		})
		sh.finish()
		return shards, err
	}
	queue := make(chan sampleBatch, w) // one batch in hand per shard
	// add takes a refillable batch back whenever it can, so w queued, w being
	// folded and one with the feed are all that exist: free never blocks.
	free := make(chan sampleBatch, 2*w+1)
	err := par.Do(w+1, w+1, func(i int) error {
		if i == 0 {
			defer close(queue)
			return feed(func(b sampleBatch) (spare sampleBatch) {
				queue <- b
				select {
				case spare = <-free:
				default:
				}
				return spare
			})
		}
		sh := newShard(lookup())
		shards[i-1] = sh
		for b := range queue {
			sh.fold(b.samples)
			if b.recs != nil {
				free <- b
			}
		}
		sh.finish()
		return nil
	})
	return shards, err
}

// mergeShards sums the shards in index order into the Aggregate of
// everything they folded.
func mergeShards(shards []*shard, lk *bbaddrmap.Lookup) *Aggregate {
	mergeStart := time.Now()
	sum, busy := shards[0], shards[0].busy
	for _, sh := range shards[1:] {
		busy = max(busy, sh.busy)
		sum.merge(sh)
	}
	agg := sum.aggregate(lk)
	agg.aggregateWall, agg.mergeWall, agg.workers = busy, time.Since(mergeStart), len(shards)
	agg.keys = sum.keys
	return agg
}

// shard folds samples into private counters, so one aggregation worker can
// consume its batches without synchronization. Records are counted by
// address first; drain resolves each distinct key into the dense counters,
// indexed by rows of the shared lookup's block table.
type shard struct {
	walker   recordWalker
	branches addrCounts // (from, to) of every record; ends counts sample-ending ones
	ranges   addrCounts // (to, next record's from) of every uncut fall-through range

	count []uint64   // executions, by block row
	edges pairCounts // (from row, to row): taken branches and fall-throughs of one function
	calls pairCounts // (call-site row, callee entry row)

	samples, records, branchEdges, callEdgeN int

	keys int // distinct keys drained, summed over drains
	peak int // most keys either address table held

	busy time.Duration // spent in fold and finish
}

// keyBound caps the distinct keys a shard's address table holds: a drain
// empties both when either reaches it, so a stream of distinct records costs
// O(keyBound) memory and one resolution each. The benchmark's profiles have
// at most about 7 000 distinct keys of either kind, so they drain once, at
// the end. A var so tests can shrink it.
var keyBound = 1 << 14

func newShard(lk *bbaddrmap.Lookup) *shard {
	return &shard{walker: newRecordWalker(lk), count: make([]uint64, len(lk.Blocks()))}
}

// fold is add on the shard's clock.
func (sh *shard) fold(batch []profile.Sample) {
	start := time.Now()
	sh.add(batch)
	sh.busy += time.Since(start)
}

// finish drains what the address tables still hold, on the shard's clock:
// resolution is aggregation work, whoever calls it.
func (sh *shard) finish() {
	start := time.Now()
	sh.drain()
	sh.busy += time.Since(start)
}

// add counts one batch of LBR samples by address: each record's branch,
// and its fall-through range unless it is the sample's last record (whose
// target alone is counted, as the branch slot's ends) or its successor's
// source lies below its target (a cut pair, which has no range). The
// record count is kept in a local and stored once per batch: shards are
// small and allocated together, so a store per record from each worker
// would bounce one cache line between them.
func (sh *shard) add(batch []profile.Sample) {
	records, bound := 0, keyBound
	for _, s := range batch {
		recs := s.Records
		records += len(recs)
		for i, r := range recs {
			b := sh.branches.slot(r.From, r.To)
			b.n++
			if i+1 == len(recs) {
				b.ends++
			} else if next := recs[i+1].From; next >= r.To {
				sh.ranges.slot(r.To, next).n++
			}
			if sh.branches.n >= bound || sh.ranges.n >= bound {
				sh.drain()
			}
		}
	}
	sh.samples += len(batch)
	sh.records += records
}

// drain resolves every key the address tables hold, once, through the
// record walker, credits its count into the row counters, and empties the
// tables for reuse. Every contribution is linear in the record count, so a
// key counted n times adds what n walks of its record would.
func (sh *shard) drain() {
	w, blocks := &sh.walker, sh.walker.blocks
	for _, s := range sh.branches.slots {
		if s.n == 0 {
			continue
		}
		kind, from, to := w.branch(s.a, s.b)
		switch kind {
		case recBranch:
			sh.edges.add(from, to, s.n)
			sh.branchEdges += int(s.n)
		case recCall:
			sh.calls.add(from, to, s.n)
			sh.callEdgeN += int(s.n)
		}
		if s.ends != 0 && to >= 0 {
			sh.count[to] += s.ends
		}
	}
	for _, s := range sh.ranges.slots {
		if s.n == 0 {
			continue
		}
		run := w.fallThrough(s.a, s.b)
		prevFn := int32(-1)
		for j, b := range run {
			sh.count[b] += s.n
			if fn := blocks[b].Fn; fn == prevFn {
				sh.edges.add(run[j-1], b, s.n)
				sh.branchEdges += int(s.n)
			} else {
				prevFn = fn
			}
		}
	}
	sh.keys += sh.branches.n + sh.ranges.n
	sh.peak = max(sh.peak, sh.branches.n, sh.ranges.n)
	sh.branches.reset()
	sh.ranges.reset()
}

// merge adds another shard's counters into sh.
func (sh *shard) merge(o *shard) {
	for i, c := range o.count {
		sh.count[i] += c
	}
	o.edges.each(sh.edges.add)
	o.calls.each(sh.calls.add)
	sh.samples += o.samples
	sh.records += o.records
	sh.branchEdges += o.branchEdges
	sh.callEdgeN += o.callEdgeN
	sh.keys += o.keys
}

// aggregate converts the dense counters to the position-independent
// Aggregate: rows become (function name, stable block ID). Several rows can
// carry one ID — a hostile map may repeat it — and then their counts add.
func (sh *shard) aggregate(lk *bbaddrmap.Lookup) *Aggregate {
	blocks, names := lk.Blocks(), lk.FuncNames()
	agg := newAggregate()
	agg.samples, agg.records = sh.samples, sh.records
	agg.branchEdges, agg.callEdgeN = sh.branchEdges, sh.callEdgeN
	profiles := make([]*funcProfile, len(names))
	profileOf := func(fn int32) *funcProfile {
		if profiles[fn] == nil {
			profiles[fn] = &funcProfile{counts: map[int]uint64{}, edges: map[edgeKey]uint64{}}
			agg.funcs[names[fn]] = profiles[fn]
		}
		return profiles[fn]
	}
	for bi, c := range sh.count {
		if c != 0 {
			profileOf(blocks[bi].Fn).counts[blocks[bi].ID] += c
		}
	}
	sh.edges.each(func(from, to int32, n uint64) {
		profileOf(blocks[from].Fn).edges[edgeKey{blocks[from].ID, blocks[to].ID}] += n
	})
	sh.calls.each(func(from, to int32, n uint64) {
		agg.calls[callKey{names[blocks[from].Fn], blocks[from].ID, names[blocks[to].Fn]}] += n
	})
	return agg
}

// pairCounts counts ordered pairs of block rows: an open-addressing table
// keyed by the two rows packed into one word, linear probing, grown at half
// full. The zero value is an empty table.
type pairCounts struct {
	slots []pairSlot
	n     int
}

type pairSlot struct {
	key uint64 // from<<32 | to, plus one; 0 marks an empty slot
	n   uint64
}

func (t *pairCounts) add(from, to int32, n uint64) {
	if 2*t.n >= len(t.slots) {
		t.grow()
	}
	key := (uint64(from)<<32 | uint64(to)) + 1
	mask := uint64(len(t.slots) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> 32 & mask; ; i = (i + 1) & mask {
		switch s := &t.slots[i]; s.key {
		case key:
			s.n += n
			return
		case 0:
			*s = pairSlot{key: key, n: n}
			t.n++
			return
		}
	}
}

func (t *pairCounts) grow() {
	old := t.slots
	t.slots, t.n = make([]pairSlot, max(256, 2*len(old))), 0
	for _, s := range old {
		if s.key != 0 {
			t.add(int32((s.key-1)>>32), int32(s.key-1), s.n)
		}
	}
}

// each calls visit for every pair counted, in table order (callers sum
// into maps or other tables, so the order does not show).
func (t *pairCounts) each(visit func(from, to int32, n uint64)) {
	for _, s := range t.slots {
		if s.key != 0 {
			visit(int32((s.key-1)>>32), int32(s.key-1), s.n)
		}
	}
}

// addrCounts counts records by a pair of raw addresses: an open-addressing
// table, linear probing, grown at half full and emptied in place by reset,
// so a shard that drains reuses its slots. The zero value is an empty table.
type addrCounts struct {
	slots []addrSlot
	n     int
}

type addrSlot struct {
	a, b uint64
	n    uint64 // records with this key; 0 marks an empty slot
	ends uint64 // of those, how many ended their sample
}

// slot returns the slot of (a, b), claiming an empty one for a new key; the
// caller counts into it before the next call.
func (t *addrCounts) slot(a, b uint64) *addrSlot {
	if 2*t.n >= len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	h := (a ^ b*0x9E3779B97F4A7C15) * 0xD6E8FEB86659FD93
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.n == 0 {
			s.a, s.b = a, b
			t.n++
			return s
		}
		if s.a == a && s.b == b {
			return s
		}
	}
}

func (t *addrCounts) grow() {
	old := t.slots
	t.slots, t.n = make([]addrSlot, max(256, 2*len(old))), 0
	for _, s := range old {
		if s.n != 0 {
			ns := t.slot(s.a, s.b)
			ns.n, ns.ends = s.n, s.ends
		}
	}
}

func (t *addrCounts) reset() {
	clear(t.slots)
	t.n = 0
}

// Wire format for cached aggregates. Every map is emitted in sorted key
// order, so equal aggregates encode to equal bytes — the property that
// makes the encoding a content-addressed cache value (and the codec the
// nightly fuzz job exercises).
const aggMagic = "WAG1"

// EncodeAggregate serializes the aggregate deterministically.
func EncodeAggregate(a *Aggregate) []byte {
	w := &wire.Writer{Buf: []byte(aggMagic)}
	w.Int(int(a.profileBytes))
	w.Int(a.samples)
	w.Int(a.records)
	w.Int(a.branchEdges)
	w.Int(a.callEdgeN)

	names := make([]string, 0, len(a.funcs))
	for fn := range a.funcs {
		names = append(names, fn)
	}
	sort.Strings(names)
	w.Int(len(names))
	for _, fn := range names {
		fp := a.funcs[fn]
		w.Str(fn)
		ids := make([]int, 0, len(fp.counts))
		for id := range fp.counts {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		w.Int(len(ids))
		for _, id := range ids {
			w.Int(id)
			w.U64(fp.counts[id])
		}
		eks := make([]edgeKey, 0, len(fp.edges))
		for k := range fp.edges {
			eks = append(eks, k)
		}
		sort.Slice(eks, func(i, j int) bool {
			if eks[i].from != eks[j].from {
				return eks[i].from < eks[j].from
			}
			return eks[i].to < eks[j].to
		})
		w.Int(len(eks))
		for _, k := range eks {
			w.Int(k.from)
			w.Int(k.to)
			w.U64(fp.edges[k])
		}
	}

	cks := make([]callKey, 0, len(a.calls))
	for k := range a.calls {
		cks = append(cks, k)
	}
	sort.Slice(cks, func(i, j int) bool {
		a, b := cks[i], cks[j]
		if a.fn != b.fn {
			return a.fn < b.fn
		}
		if a.block != b.block {
			return a.block < b.block
		}
		return a.callee < b.callee
	})
	w.Int(len(cks))
	for _, k := range cks {
		w.Str(k.fn)
		w.Int(k.block)
		w.Str(k.callee)
		w.U64(a.calls[k])
	}
	return w.Buf
}

// DecodeAggregate parses an EncodeAggregate value. It never panics on
// corrupt input (fuzzed); a decoded aggregate re-encodes byte-identically.
func DecodeAggregate(data []byte) (*Aggregate, error) {
	r := wire.NewReader("wpa: aggregate codec", aggMagic, data)
	a := newAggregate()
	a.profileBytes = int64(r.Int())
	a.samples = r.Int()
	a.records = r.Int()
	a.branchEdges = r.Int()
	a.callEdgeN = r.Int()
	for i, nFuncs := 0, r.Count(); i < nFuncs && r.Err() == nil; i++ {
		fn := r.Str()
		if _, dup := a.funcs[fn]; dup {
			r.Fail("duplicate function %q", fn)
		}
		fp := &funcProfile{counts: map[int]uint64{}, edges: map[edgeKey]uint64{}}
		a.funcs[fn] = fp
		for j, n := 0, r.Count(); j < n && r.Err() == nil; j++ {
			id := r.Int()
			fp.counts[id] = r.U64()
		}
		for j, n := 0, r.Count(); j < n && r.Err() == nil; j++ {
			k := edgeKey{from: r.Int(), to: r.Int()}
			fp.edges[k] = r.U64()
		}
	}
	for i, nCalls := 0, r.Count(); i < nCalls && r.Err() == nil; i++ {
		k := callKey{fn: r.Str(), block: r.Int(), callee: r.Str()}
		a.calls[k] += r.U64()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return a, nil
}
