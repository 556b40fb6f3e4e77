// Parallel re-scoring for the §4.7 inter-procedural layout. The global
// Ext-TSP run is one merge state whatever the worker count: the hot graph
// of a warehouse-scale binary is one giant component plus crumbs, so
// there is nothing worth splitting across cores but the re-scoring that
// follows every merge. That re-scoring is a batch of independent
// bestMerge calls over a frozen state, and LayoutParallel's pool lets
// idle workers take part of it (batch, scoreBatch); the merges, and so
// the final order, are Layout's at every worker count.
package exttsp

import (
	"sort"
	"sync"
	"sync/atomic"

	"propeller/internal/par"
)

// Components returns the connected components of g's merge graph — nodes
// linked by at least one positive-weight non-self edge, the exact
// adjacency the merge retrieval explores. Each component's nodes are
// ascending and components are ordered by their smallest node, so the
// partition is deterministic. The layout does not split along it; it is
// the shape wpa's shard statistics and the modeled Phase-3 scaling read.
func Components(g *Graph) [][]int {
	n := len(g.Nodes)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges {
		if e.Src == e.Dst || e.Weight == 0 {
			continue // invisible to the merge adjacency
		}
		a, b := find(e.Src), find(e.Dst)
		if a != b {
			if a > b {
				a, b = b, a
			}
			parent[b] = a
		}
	}
	members := map[int][]int{}
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if members[r] == nil {
			roots = append(roots, r)
		}
		members[r] = append(members[r], i)
	}
	sort.Ints(roots)
	out := make([][]int, len(roots))
	for i, r := range roots {
		out[i] = members[r] // ascending: appended in index order
	}
	return out
}

// LayoutParallel is Layout on workers cores: the caller's merge state
// shares each large enough re-scoring batch with workers-1 helpers that
// are gone when it returns. The final order is identical to Layout's at
// every worker count. workers <= 1 is the serial path.
func LayoutParallel(g *Graph, opts Options, workers int) ([]int, error) {
	if workers <= 1 || len(g.Nodes) == 0 {
		return Layout(g, opts)
	}
	if err := validate(g, opts); err != nil {
		return nil, err
	}
	return layoutPooled(g, opts, workers, batchMinWork), nil
}

// layoutPooled runs one merge state over a validated g with a pool of
// workers-1 helpers whose hand-off threshold is minWork. Task 0 is the
// owner and the rest are helpers; par.Do hands out indices in ascending
// order, so the owner is always running while a helper waits on jobs, and
// it closes jobs when the merges are done, which releases every helper.
func layoutPooled(g *Graph, opts Options, workers, minWork int) []int {
	st := newState(g, opts)
	st.pool = &pool{jobs: make(chan *batch), helpers: workers - 1, minWork: minWork}
	_ = par.Do(workers, workers, func(i int) error {
		if i == 0 {
			st.run()
			close(st.pool.jobs)
			return nil
		}
		var sc priceScratch
		for b := range st.pool.jobs {
			b.help(&sc)
		}
		return nil
	})
	return st.finalOrder()
}

// batchMinWork is the least work estimate (batchWork) at which run
// offers a batch to the pool. Sized on the Bigtable hot graph (one
// component of 2 171 blocks, BenchmarkLayoutInterProc, GOMAXPROCS=2, 20
// layouts), time per batch with the owner alone against owner plus one
// helper, by work estimate:
//
//	  512–1 023    37 µs →    45 µs
//	1 024–2 047    76 µs →    83 µs
//	2 048–4 095   148 µs →   143 µs
//	4 096–8 191   338 µs →   291 µs
//	8 192–16 383  432 µs →   341 µs
//	65 536–       1.69 ms →  1.02 ms
//
// A parked helper starts about 100 µs after the send (the runtime wakes a
// thread, which then steals the goroutine), so a batch the owner finishes
// in less gains nothing and pays for the wake. The 158 batches per layout
// at or above the threshold, of 5 008, hold 73% of the re-scoring time.
// Since refine starts concatenations from the cached fold and price walks
// the shorter chain of a pair without splits, a long x against a short
// neighbour costs less than |x|+|nb|; neither a threshold of 2 048 nor an
// estimate that charges such a pair twice its short side beat this one
// in alternated BenchmarkLayoutInterProc rounds.
const batchMinWork = 4096

// pool is the helper side of one LayoutParallel call. An idle helper
// parks in a receive on jobs, and jobs is unbuffered, so a non-blocking
// send reaches a helper only if it is parked at that instant: one not yet
// back from its last batch is simply not borrowed, an offer never queues,
// and the goroutines running never exceed the worker count.
type pool struct {
	jobs    chan *batch
	helpers int
	minWork int
}

// batch is one merged chain's re-scoring, shared between the goroutine
// that owns the state and the helpers that took its offer. Between
// applyMerge and the heap pushes nothing writes st, and bestMerge writes
// only the priceScratch it is handed, so the calls are independent: each
// participant claims neighbour indices from next, scores with its own
// scratch and stores the candidate at its neighbour's index.
type batch struct {
	st   *state
	x    *chain
	nbs  []int            // x's neighbour chain ids, ascending
	out  []mergeCandidate // out[i] is the candidate for nbs[i]; gain <= 0 is none
	next atomic.Int64     // first unclaimed index of nbs
	busy sync.WaitGroup   // helpers that took the offer and have not finished
}

// score claims and scores neighbours until none is left.
func (b *batch) score(sc *priceScratch) {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= len(b.nbs) {
			return
		}
		// A miss keeps the zero gain of the empty candidate or the
		// non-positive gain bestMerge found: not pushed either way.
		b.out[i], _ = b.st.rescore(sc, b.x, b.st.chains[b.nbs[i]])
	}
}

// help is a helper's whole part in b; it must not touch b afterwards,
// because the owner reuses it for the next merge.
func (b *batch) help(sc *priceScratch) {
	b.score(sc)
	b.busy.Done()
}

// batchWork estimates the cost of re-scoring x against nbs: bestMerge
// walks both chains of a pair, so the summed pair lengths.
func (st *state) batchWork(x *chain, nbs []int) int {
	work := len(nbs) * len(x.nodes)
	for _, id := range nbs {
		work += len(st.chains[id].nodes)
	}
	return work
}

// scoreBatch is run's re-scoring loop shared with the pool: it returns
// the candidate of every neighbour in nbs, by index, exactly as the serial
// loop computes them, for the caller to push in that order. The slice is
// reused by the next call.
func (st *state) scoreBatch(x *chain, nbs []int) []mergeCandidate {
	b := st.batch
	if b == nil {
		b = &batch{st: st}
		st.batch = b
	}
	b.x, b.nbs = x, nbs
	if cap(b.out) < len(nbs) {
		b.out = make([]mergeCandidate, 2*len(nbs))
	}
	b.out = b.out[:len(nbs)]
	b.next.Store(0)
	// One offer per neighbour at most, and none once a send finds nobody
	// idle.
offers:
	for k := 0; k < st.pool.helpers && k < len(nbs); k++ {
		b.busy.Add(1)
		select {
		case st.pool.jobs <- b:
		default:
			b.busy.Done()
			break offers
		}
	}
	b.score(&st.sc)
	b.busy.Wait()
	return b.out
}
