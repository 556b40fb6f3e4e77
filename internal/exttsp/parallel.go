// Sharded chain formation for the §4.7 inter-procedural layout: the
// global Ext-TSP run decomposes by connected components of the merge
// graph, because every merge candidate joins two chains linked by at
// least one edge — chains in different components never interact, their
// candidate gains are independent, and the greedy retrieval (naive or
// heap) applies each component's merge sequence unchanged no matter how
// the components' sequences interleave. So chain formation can run per
// component in parallel shards and the shard chain-sets can be merged by
// re-seeding the ordinary retrieval over the pre-built chains: the final
// layout is identical to the single serial run, at every worker count.
//
// Components alone leave a warehouse-scale layout on one core — the hot
// graph of a real binary is one giant component plus crumbs — so the
// worker count is cores for the layout, not components in flight: inside
// a component, the re-scoring that follows every merge is a batch of
// independent bestMerge calls over a frozen state, and LayoutParallel's
// pool lets idle workers take part of it (batch, scoreBatch).
package exttsp

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Chain is one formed chain of the merge process, in the node ids of the
// graph it was formed over.
type Chain struct {
	Nodes []int
	Size  int64  // summed node sizes
	Count uint64 // summed execution counts
}

// Components returns the connected components of g's merge graph — nodes
// linked by at least one positive-weight non-self edge, the exact
// adjacency the merge retrieval explores. Each component's nodes are
// ascending and components are ordered by their smallest node, so the
// partition is deterministic.
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

// FormChains runs the greedy chain-merge phase over the subgraph induced
// by nodes (ascending node ids of g), returning the formed chains in g's
// node ids, ordered by each chain's smallest node. When nodes is one
// component of Components(g), the returned chains are exactly the chains
// a whole-graph run would have formed for that component: the induced
// subgraph preserves every candidate gain and, because the local
// re-indexing is order-preserving, every id tie-break.
func FormChains(g *Graph, opts Options, nodes []int) ([]Chain, error) {
	return formChains(g, opts, nodes, nil)
}

// formChains is FormChains whose merge state may borrow p's idle helpers.
func formChains(g *Graph, opts Options, nodes []int, p *pool) ([]Chain, error) {
	local := &Graph{Nodes: make([]Node, len(nodes))}
	index := make(map[int]int, len(nodes))
	for i, n := range nodes {
		if i > 0 && nodes[i-1] >= n {
			return nil, fmt.Errorf("exttsp: shard nodes must be ascending and unique")
		}
		if n < 0 || n >= len(g.Nodes) {
			return nil, fmt.Errorf("exttsp: shard node %d out of range", n)
		}
		index[n] = i
		local.Nodes[i] = g.Nodes[n]
	}
	for _, e := range g.Edges {
		si, ok1 := index[e.Src]
		di, ok2 := index[e.Dst]
		if ok1 && ok2 {
			local.Edges = append(local.Edges, Edge{Src: si, Dst: di, Weight: e.Weight})
		}
	}
	lopts := opts
	lopts.ForcedFirst = -1
	if opts.ForcedFirst >= 0 {
		if li, ok := index[opts.ForcedFirst]; ok {
			lopts.ForcedFirst = li
		}
	}
	st := newState(local, lopts)
	st.pool = p
	st.run()
	var out []Chain
	for _, c := range st.chains {
		if c.dead {
			continue
		}
		ch := Chain{Nodes: make([]int, len(c.nodes))}
		for i, nd := range c.nodes {
			ch.Nodes[i] = nodes[nd]
			ch.Size += g.Nodes[nodes[nd]].Size
			ch.Count += g.Nodes[nodes[nd]].Count
		}
		out = append(out, ch)
	}
	sort.Slice(out, func(a, b int) bool { return minNode(out[a]) < minNode(out[b]) })
	return out, nil
}

func minNode(c Chain) int {
	m := c.Nodes[0]
	for _, n := range c.Nodes[1:] {
		if n < m {
			m = n
		}
	}
	return m
}

// LayoutChains finishes a layout from pre-built chains: it seeds the
// merge state with the given chains (which must partition g's nodes),
// runs the configured retrieval over any remaining cross-chain merges,
// and returns the final order. Seeded chain ids are each chain's
// smallest node — the id the serial run's surviving chain carries, since
// every applyMerge keeps the lower-id chain — so the final density sort
// breaks ties exactly as a whole-graph Layout call does.
func LayoutChains(g *Graph, opts Options, chains []Chain) ([]int, error) {
	return layoutChains(g, opts, chains, nil)
}

// layoutChains is LayoutChains whose merge state may borrow p's idle
// helpers.
func layoutChains(g *Graph, opts Options, chains []Chain, p *pool) ([]int, error) {
	n := len(g.Nodes)
	if n == 0 {
		return nil, nil
	}
	if err := validate(g, opts); err != nil {
		return nil, err
	}
	st := newState(g, opts)
	st.pool = p
	seen := make([]bool, n)
	// Mark every chain dead, then revive one representative per seeded
	// chain; the retrieval loops skip dead entries.
	for _, c := range st.chains {
		c.dead = true
	}
	for _, ch := range chains {
		if len(ch.Nodes) == 0 {
			return nil, fmt.Errorf("exttsp: empty chain")
		}
		rep := minNode(ch)
		c := st.chains[rep]
		c.dead = false
		c.nodes = append([]int(nil), ch.Nodes...)
		c.size, c.count, c.deg = 0, 0, 0
		for i, nd := range ch.Nodes {
			if nd < 0 || nd >= n {
				return nil, fmt.Errorf("exttsp: chain node %d out of range", nd)
			}
			if seen[nd] {
				return nil, fmt.Errorf("exttsp: node %d appears in two chains", nd)
			}
			seen[nd] = true
			st.owner[nd], st.off[nd], st.idx[nd] = rep, c.size, i
			c.size += g.Nodes[nd].Size
			c.count += g.Nodes[nd].Count
			c.deg += len(st.nodeOut[nd])
		}
	}
	for nd, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("exttsp: node %d missing from chains", nd)
		}
	}
	// Folded once every node knows its chain: a fold tells members from
	// outsiders by owner.
	for _, c := range st.chains {
		if !c.dead {
			c.score = st.refold(c)
		}
	}
	st.run()
	return st.finalOrder(), nil
}

// LayoutParallel is Layout on workers cores. Chain formation fans out one
// shard per connected component of the merge graph, and a worker with no
// component left to form scores part of the re-scoring batches of those
// still running — so one giant component, or a graph that is a single
// component, uses every worker too. The final order is identical to
// Layout's at every worker count; workers <= 1 is the serial path.
func LayoutParallel(g *Graph, opts Options, workers int) ([]int, error) {
	if workers <= 1 || len(g.Nodes) == 0 {
		return Layout(g, opts)
	}
	if err := validate(g, opts); err != nil {
		return nil, err
	}
	return layoutShards(g, opts, Components(g), workers, batchMinWork)
}

// layoutShards forms the chains of every shard (a partition of g's nodes
// into unions of components) on workers goroutines — the caller and
// workers-1 helpers that are gone when it returns — and finishes the
// layout over them. minWork is the pool's hand-off threshold.
func layoutShards(g *Graph, opts Options, comps [][]int, workers, minWork int) ([]int, error) {
	p := &pool{jobs: make(chan *batch), helpers: workers - 1, minWork: minWork}
	shards := make([][]Chain, len(comps))
	errs := make([]error, len(comps))
	var next, formed atomic.Int64
	allFormed := make(chan struct{})
	form := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(comps) {
				return
			}
			shards[i], errs[i] = formChains(g, opts, comps[i], p)
			if int(formed.Add(1)) == len(comps) {
				close(allFormed)
			}
		}
	}
	var wg sync.WaitGroup
	for k := 0; k < p.helpers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			form()
			var sc priceScratch
			for b := range p.jobs {
				b.help(&sc)
			}
		}()
	}
	defer func() {
		close(p.jobs)
		wg.Wait()
	}()
	form()
	// Until the last shard is formed the caller is an idle worker like any
	// other.
	var sc priceScratch
	for waiting := true; waiting; {
		select {
		case b := <-p.jobs:
			b.help(&sc)
		case <-allFormed:
			waiting = false
		}
	}
	var chains []Chain
	for i := range comps {
		if errs[i] != nil {
			return nil, errs[i] // lowest shard index wins: deterministic
		}
		chains = append(chains, shards[i]...)
	}
	return layoutChains(g, opts, chains, p)
}

// batchMinWork is the least work estimate (batchWork) at which runHeap
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

// pool is the helper side of one LayoutParallel call, shared by every
// state the call builds. A helper with no shard left to form parks in a
// receive on jobs, and jobs is unbuffered, so a non-blocking send reaches
// a helper only if it is idle at that instant: helpers busy forming other
// components are simply not borrowed, an offer never queues behind other
// work, and the goroutines running never exceed the worker count.
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

// scoreBatch is runHeap's re-scoring loop shared with the pool: it returns
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
