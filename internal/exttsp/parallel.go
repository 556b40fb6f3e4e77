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
	n := len(g.Nodes)
	if n == 0 {
		return nil, nil
	}
	if err := validate(g, opts); err != nil {
		return nil, err
	}
	st := newState(g, opts)
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
	// Scored once every node knows its chain: a fold tells members from
	// outsiders by owner.
	for _, c := range st.chains {
		if !c.dead {
			c.score = st.chainScore(c)
		}
	}
	st.run()
	return st.finalOrder(), nil
}

// LayoutParallel is Layout with chain formation fanned out over a worker
// pool, one shard per connected component of the merge graph. The final
// order is identical to Layout's at every worker count; workers <= 1 (or
// a single component) falls through to the serial path.
func LayoutParallel(g *Graph, opts Options, workers int) ([]int, error) {
	if workers <= 1 || len(g.Nodes) == 0 {
		return Layout(g, opts)
	}
	if err := validate(g, opts); err != nil {
		return nil, err
	}
	comps := Components(g)
	if len(comps) <= 1 {
		return Layout(g, opts)
	}
	if workers > len(comps) {
		workers = len(comps)
	}
	shards := make([][]Chain, len(comps))
	errs := make([]error, len(comps))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(comps) {
					return
				}
				shards[i], errs[i] = FormChains(g, opts, comps[i])
			}
		}()
	}
	wg.Wait()
	var chains []Chain
	for i := range comps {
		if errs[i] != nil {
			return nil, errs[i] // lowest shard index wins: deterministic
		}
		chains = append(chains, shards[i]...)
	}
	return LayoutChains(g, opts, chains)
}
