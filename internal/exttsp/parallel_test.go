package exttsp

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// islandGraph builds a graph of several disconnected fuzz islands, the
// shape the component-sharded chain formation partitions.
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

// TestLayoutParallelMatchesSerial is the sharding property: for
// multi-component graphs, component-sharded chain formation merged over
// pre-built chains must reproduce the serial whole-graph layout exactly,
// for both retrieval strategies, with and without a forced-first node.
func TestLayoutParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4407))
	for trial := 0; trial < 60; trial++ {
		g := islandGraph(rng, 1+rng.Intn(6))
		forced := -1
		if rng.Intn(2) == 0 {
			forced = rng.Intn(len(g.Nodes))
		}
		for _, useHeap := range []bool{false, true} {
			opts := Options{ForcedFirst: forced, UseHeap: useHeap}
			want, err := Layout(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 3, 8} {
				got, err := LayoutParallel(g, opts, w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d heap=%v workers=%d: parallel layout diverged\nserial   %v\nparallel %v",
						trial, useHeap, w, want, got)
				}
			}
		}
	}
}

// TestFormChainsMatchesGlobalChains checks the per-component claim
// directly: chains formed on one component's induced subgraph equal the
// chains a whole-graph run forms for that component.
func TestFormChainsMatchesGlobalChains(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		g := islandGraph(rng, 2+rng.Intn(4))
		opts := Options{ForcedFirst: -1, UseHeap: trial%2 == 0}
		st := newState(g, opts)
		if opts.UseHeap {
			st.runHeap()
		} else {
			st.runNaive()
		}
		global := map[int][]int{} // representative -> nodes
		for _, c := range st.chains {
			if !c.dead {
				global[minNode(Chain{Nodes: c.nodes})] = c.nodes
			}
		}
		for _, comp := range Components(g) {
			chains, err := FormChains(g, opts, comp)
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range chains {
				want, ok := global[minNode(ch)]
				if !ok || !reflect.DeepEqual(ch.Nodes, want) {
					t.Fatalf("trial %d comp %v: shard chain %v != global chain %v", trial, comp, ch.Nodes, want)
				}
			}
		}
	}
}

func TestLayoutChainsValidation(t *testing.T) {
	g := &Graph{Nodes: make([]Node, 3)}
	cases := [][]Chain{
		{{Nodes: []int{0, 1}}},                       // node 2 missing
		{{Nodes: []int{0, 1}}, {Nodes: []int{1, 2}}}, // node 1 twice
		{{Nodes: []int{0, 1, 2}}, {Nodes: nil}},      // empty chain
		{{Nodes: []int{0, 1, 5}}},                    // out of range
	}
	for i, chains := range cases {
		if _, err := LayoutChains(g, Options{ForcedFirst: -1}, chains); err == nil {
			t.Errorf("case %d: invalid chain partition accepted", i)
		}
	}
	order, err := LayoutChains(g, Options{ForcedFirst: -1}, []Chain{{Nodes: []int{1, 0}}, {Nodes: []int{2}}})
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]int(nil), order...)
	sort.Ints(sorted)
	if !reflect.DeepEqual(sorted, []int{0, 1, 2}) {
		t.Fatalf("layout %v is not a permutation", order)
	}
}

func TestFormChainsRejectsBadShard(t *testing.T) {
	g := fuzzGraph(rand.New(rand.NewSource(1)), 6)
	if _, err := FormChains(g, Options{ForcedFirst: -1}, []int{2, 1}); err == nil {
		t.Error("descending shard accepted")
	}
	if _, err := FormChains(g, Options{ForcedFirst: -1}, []int{0, 9}); err == nil {
		t.Error("out-of-range shard node accepted")
	}
}

// connectedGraph is fuzzGraph made one component by a spanning path of
// positive weights: the shape component sharding cannot split.
func connectedGraph(rng *rand.Rand, n int) *Graph {
	g := fuzzGraph(rng, n)
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, Edge{Src: i, Dst: i + 1, Weight: uint64(1 + rng.Intn(50))})
	}
	return g
}

// TestLayoutParallelOneComponent is the batch property: on a graph that is
// a single component — where every worker but one has nothing to form and
// can only help by scoring part of the owner's re-scoring batches — the
// order is Layout's at every worker count, at the production threshold
// and with every batch forced across the pool.
func TestLayoutParallelOneComponent(t *testing.T) {
	check := func(name string, g *Graph, opts Options, minWorks ...int) {
		t.Helper()
		if n := len(Components(g)); n != 1 {
			t.Fatalf("%s: %d components, want 1", name, n)
		}
		want, err := Layout(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 3, 8} {
			got, err := LayoutParallel(g, opts, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: LayoutParallel diverged from Layout", name, w)
			}
			for _, minWork := range minWorks {
				got, err := layoutParallelMinWork(g, opts, w, minWork)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s workers=%d threshold=%d: pooled layout diverged from Layout\nserial %v\npooled %v", name, w, minWork, want, got)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(2171))
	// The Bigtable hot graph's giant component is 2 171 blocks.
	big := 2200
	if testing.Short() {
		big = 600
	}
	check("big", connectedGraph(rng, big), Options{ForcedFirst: -1, UseHeap: true}, 0)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(70)
		opts := Options{ForcedFirst: rng.Intn(n+1) - 1, UseHeap: true}
		if trial%4 == 3 {
			opts.MaxSplitChain = 1 + rng.Intn(6)
		}
		// Thresholds around the work of a small graph's batches put pooled
		// and serial re-scoring in one run.
		check("small", connectedGraph(rng, n), opts, 0, 24)
	}
}

// TestLayoutParallelLeavesNoGoroutines: the pool lives inside the call —
// its helpers are gone when LayoutParallel returns, with an order or with
// an error from before or after they were started.
func TestLayoutParallelLeavesNoGoroutines(t *testing.T) {
	g := islandGraph(rand.New(rand.NewSource(24)), 5)
	opts := Options{ForcedFirst: -1, UseHeap: true}
	badShards := Components(g)
	badShards[1] = []int{badShards[1][0], badShards[1][0]} // not ascending: FormChains rejects it
	calls := []struct {
		name    string
		call    func() ([]int, error)
		wantErr bool
	}{
		{"success", func() ([]int, error) { return layoutParallelMinWork(g, opts, 4, 0) }, false},
		{"validate error", func() ([]int, error) {
			return LayoutParallel(g, Options{ForcedFirst: len(g.Nodes), UseHeap: true}, 4)
		}, true},
		{"shard error", func() ([]int, error) { return layoutShards(g, opts, badShards, 4, 0) }, true},
	}
	for _, c := range calls {
		base := runtime.NumGoroutine()
		if _, err := c.call(); (err != nil) != c.wantErr {
			t.Fatalf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
		// A helper that has signalled its WaitGroup is still counted until
		// it has finished exiting.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the call: a pool helper outlived it", c.name, runtime.NumGoroutine(), base)
			}
		}
	}
}
