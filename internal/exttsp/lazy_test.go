package exttsp

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// islandGraph builds a graph of several disconnected fuzz islands: merges
// never cross an island, so one merge state must interleave the islands'
// merge sequences exactly as the naive rescan does.
func islandGraph(rng *rand.Rand, islands int) *Graph {
	g := &Graph{}
	for k := 0; k < islands; k++ {
		sub := fuzzGraph(rng, 2+rng.Intn(24))
		base := len(g.Nodes)
		g.Nodes = append(g.Nodes, sub.Nodes...)
		for _, e := range sub.Edges {
			g.Edges = append(g.Edges, Edge{Src: base + e.Src, Dst: base + e.Dst, Weight: e.Weight})
		}
	}
	// Shuffle edge order; the layout must not depend on it beyond the
	// deterministic candidate tie-breaks.
	rng.Shuffle(len(g.Edges), func(i, j int) { g.Edges[i], g.Edges[j] = g.Edges[j], g.Edges[i] })
	return g
}

func TestComponentsPartition(t *testing.T) {
	g := &Graph{Nodes: make([]Node, 7)}
	g.Edges = []Edge{
		{Src: 0, Dst: 2, Weight: 5},
		{Src: 2, Dst: 4, Weight: 1},
		{Src: 5, Dst: 1, Weight: 3},
		{Src: 3, Dst: 3, Weight: 9}, // self-loop: no adjacency
		{Src: 3, Dst: 6, Weight: 0}, // zero weight: no adjacency
	}
	got := Components(g)
	want := [][]int{{0, 2, 4}, {1, 5}, {3}, {6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("components = %v, want %v", got, want)
	}
}

// TestIslandGraphsMatchNaive: on multi-component graphs the one merge
// state, whose heap holds bound entries of every island at once, lays out
// exactly what the naive rescan does, with and without a forced-first
// node.
func TestIslandGraphsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4407))
	for trial := 0; trial < 60; trial++ {
		g := islandGraph(rng, 1+rng.Intn(6))
		forced := -1
		if rng.Intn(2) == 0 {
			forced = rng.Intn(len(g.Nodes))
		}
		opts := Options{ForcedFirst: forced}
		want, err := layoutNaive(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Layout(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: heap layout diverged from the naive rescan\nnaive %v\nheap  %v", trial, want, got)
		}
	}
}

// layoutEager is Layout with the retrieval the bound tiers replaced: the
// merged chain is priced and refined against every neighbour after each
// merge, and only exact candidates enter the heap. It returns the order
// and the number of bestMerge calls made, what eager retrieval spends.
func layoutEager(g *Graph, opts Options) ([]int, int) {
	st := newState(g, opts)
	var h candidateHeap
	calls := 0
	rescore := func(x *chain, nbs []int) {
		for _, id := range nbs {
			a, b := x, st.chains[id]
			if b.id < a.id {
				a, b = b, a
			}
			calls++
			if c, ok := st.bestMerge(&st.sc, a, b); ok {
				h.push(c)
			}
		}
	}
	for _, x := range st.chains {
		nbs := st.neighbors(x)
		rescore(x, nbs[sort.SearchInts(nbs, x.id):])
	}
	for len(h) > 0 {
		c := h.pop()
		if st.stale(&c) {
			continue
		}
		st.applyMerge(c)
		x := st.chains[c.x]
		rescore(x, st.neighbors(x))
	}
	return st.finalOrder(), calls
}

// hubGraph is one component: a spanning path of random weights, plus an
// edge between every node and one of a few hubs, so a merge into a hub's
// chain leaves it hundreds of neighbours.
func hubGraph(rng *rand.Rand, n, hubs int) *Graph {
	g := &Graph{Nodes: make([]Node, n)}
	for i := range g.Nodes {
		g.Nodes[i] = Node{Size: int64(4 + rng.Intn(96)), Count: uint64(rng.Intn(2000))}
	}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, Edge{Src: i, Dst: i + 1, Weight: uint64(1 + rng.Intn(200))})
	}
	for i := hubs; i < n; i++ {
		e := Edge{Src: i, Dst: rng.Intn(hubs), Weight: uint64(1 + rng.Intn(60))}
		if rng.Intn(2) == 0 {
			e.Src, e.Dst = e.Dst, e.Src
		}
		g.Edges = append(g.Edges, e)
	}
	return g
}

// TestLazyRetrievalSkipsStalePairs: on a one-component hub graph of 2 000
// nodes, where a merged hub chain has hundreds of neighbours, the lazy
// tiers lay out exactly what eager re-scoring does while pricing well
// under half the pairs eager retrieval scores and refining at most three
// pairs per merge. A retrieval that turned eager again (priced or refined
// every neighbour of a merged chain) fails here, though every layout
// oracle would still pass. Small graphs under every option replay eager
// retrieval too.
func TestLazyRetrievalSkipsStalePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(2171))
	n := 2000
	if testing.Short() {
		n = 600
	}
	g := hubGraph(rng, n, 6)
	if c := len(Components(g)); c != 1 {
		t.Fatalf("%d components, want 1", c)
	}
	var eff Effort
	got, err := Layout(g, Options{ForcedFirst: -1, Effort: &eff})
	if err != nil {
		t.Fatal(err)
	}
	want, eager := layoutEager(g, Options{ForcedFirst: -1})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("lazy layout diverged from eager re-scoring")
	}
	t.Logf("%d nodes: %d merges, %d priced, %d refined; eager scored %d pairs", n, eff.Merges, eff.Priced, eff.Refined, eager)
	if eff.Merges == 0 || eff.Refined > 3*eff.Merges {
		t.Errorf("refined %d pairs over %d merges, want at most 3 per merge", eff.Refined, eff.Merges)
	}
	if 2*eff.Priced > eager {
		t.Errorf("priced %d pairs, eager retrieval scores %d: want under half", eff.Priced, eager)
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(70)
		opts := Options{ForcedFirst: rng.Intn(n+1) - 1}
		if trial%4 == 3 {
			opts.MaxSplitChain = 1 + rng.Intn(6)
		}
		g := hubGraph(rng, n, 1+rng.Intn(4))
		got, err := Layout(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := layoutEager(g, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: lazy layout diverged from eager re-scoring\neager %v\nlazy  %v", trial, want, got)
		}
	}
}

// TestWeightBoundCoversEveryCandidate holds the bound entry's key to its
// contract over whole naive runs: for every pair of adjacent chains, the
// key made from the sums neighbors leaves is at least the canonical gain
// of every legal candidate, and +Inf exactly when the weights are not
// monotone. Zero-size nodes, exact ties and 1-byte windows are the inputs
// where a fall-through test on indices rather than offsets, or a bound
// without the rounding slack, would be caught.
func TestWeightBoundCoversEveryCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	params := []Params{
		{},
		{ForwardWeight: 0.4, BackwardWeight: 0.05},
		{ForwardWindow: 1, BackwardWindow: 1},
		{FallthroughWeight: 0.001}, // not monotone
		{BackwardWeight: -0.05},    // negative
	}
	sizes := []int64{0, 0, 16, 0, 8}
	var pairs int
	for trial := 0; trial < 40; trial++ {
		g := fuzzGraph(rng, 2+rng.Intn(40))
		if trial%2 == 0 {
			g = backboneGraph(rng, 12, 6, 3, func() int64 { return sizes[rng.Intn(len(sizes))] })
		}
		p := params[trial%len(params)]
		r := p.normalize()
		monotone := min(r.FallthroughWeight, r.ForwardWeight, r.BackwardWeight) >= 0 &&
			max(r.ForwardWeight, r.BackwardWeight) <= r.FallthroughWeight
		st := newState(g, Options{ForcedFirst: -1, Params: p})
		for {
			var best mergeCandidate
			found := false
			for _, x := range st.chains {
				if x.dead {
					continue
				}
				for _, yid := range st.neighbors(x) {
					if yid <= x.id {
						continue
					}
					y := st.chains[yid]
					key := st.pairBound(x, y, st.nbXY[yid], st.nbYX[yid], st.nbB[yid])
					if math.IsInf(key, 1) == monotone {
						t.Fatalf("trial %d pair (%d,%d): key %v under params %+v", trial, x.id, y.id, key, p)
					}
					for k := 0; k < len(x.nodes)+1 && (k < 2 || len(x.nodes) <= st.opts.maxSplit()); k++ {
						split := splitOf(k, len(x.nodes))
						if gain := st.viewScore(x, y, split) - x.score - y.score; gain > key {
							t.Fatalf("trial %d pair (%d,%d) split %d: canonical gain %v above the bound %v",
								trial, x.id, y.id, split, gain, key)
						}
					}
					pairs++
					if c, ok := st.bestMerge(&st.sc, x, y); ok && (!found || c.gain > best.gain) {
						best, found = c, true
					}
				}
			}
			if !found {
				break
			}
			st.applyMerge(best)
		}
	}
	if pairs < 5000 {
		t.Errorf("only %d pairs checked", pairs)
	}
}
