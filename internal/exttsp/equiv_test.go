package exttsp

import (
	"container/heap"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// fuzzGraph builds a randomized CFG-like graph: a chain backbone, random
// extra edges (including duplicates, self-loops, and zero weights, which
// the optimizer must tolerate), and varied block sizes.
func fuzzGraph(rng *rand.Rand, n int) *Graph {
	g := &Graph{Nodes: make([]Node, n)}
	for i := range g.Nodes {
		g.Nodes[i] = Node{Size: int64(4 + rng.Intn(96)), Count: uint64(rng.Intn(2000))}
	}
	for i := 0; i+1 < n; i++ {
		if rng.Intn(4) != 0 {
			g.Edges = append(g.Edges, Edge{Src: i, Dst: i + 1, Weight: uint64(rng.Intn(200))})
		}
	}
	extra := n
	for i := 0; i < extra; i++ {
		g.Edges = append(g.Edges, Edge{Src: rng.Intn(n), Dst: rng.Intn(n), Weight: uint64(rng.Intn(100))})
	}
	return g
}

// TestHeapNaiveScoreEquivalence is the fuzz-style retrieval-equivalence
// property: the heap-based logarithmic retrieval and the naive quadratic
// rescan must reach exactly equal scores (in fact identical layouts) on
// randomized graphs — the §4.7 speedup is purely about retrieval cost.
func TestHeapNaiveScoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20230419))
	scratch := &Scratch{}
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(70)
		g := fuzzGraph(rng, n)
		forced := -1
		if rng.Intn(2) == 0 {
			forced = rng.Intn(n)
		}
		on, err := layoutNaive(g, Options{ForcedFirst: forced})
		if err != nil {
			t.Fatal(err)
		}
		oh, err := Layout(g, Options{ForcedFirst: forced})
		if err != nil {
			t.Fatal(err)
		}
		sn := ScoreWith(g, on, Params{}, scratch)
		sh := ScoreWith(g, oh, Params{}, scratch)
		if sn != sh {
			t.Fatalf("trial %d (n=%d forced=%d): naive score %v != heap score %v\nnaive order %v\nheap order  %v",
				trial, n, forced, sn, sh, on, oh)
		}
		if !reflect.DeepEqual(on, oh) {
			t.Fatalf("trial %d (n=%d forced=%d): retrieval strategies diverged\nnaive %v\nheap  %v",
				trial, n, forced, on, oh)
		}
	}
}

// TestScoreWithScratchMatchesScore verifies the scratch-buffer Score path
// is exact and allocation-free once the scratch is warm.
func TestScoreWithScratchMatchesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scratch := &Scratch{}
	for trial := 0; trial < 50; trial++ {
		g := fuzzGraph(rng, 2+rng.Intn(50))
		order := rng.Perm(len(g.Nodes))
		// Partial orders (subset of nodes) must work identically too.
		if rng.Intn(2) == 0 {
			order = order[:1+rng.Intn(len(order))]
		}
		want := Score(g, order)
		if got := ScoreWith(g, order, Params{}, scratch); got != want {
			t.Fatalf("trial %d: ScoreWith %v != Score %v", trial, got, want)
		}
	}
	g := fuzzGraph(rng, 64)
	order := rng.Perm(64)
	ScoreWith(g, order, Params{}, scratch) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() { ScoreWith(g, order, Params{}, scratch) })
	if allocs != 0 {
		t.Errorf("ScoreWith with warm scratch allocates %.1f times per call, want 0", allocs)
	}
}

// TestTunedMatchesUntunedReference pins the inner-loop tuning (cached chain
// scores, slice scratch buffers) to the pre-tuning semantics: an untuned
// reference that recomputes every base score with map-based position
// tables must produce byte-identical layouts on the existing test corpus.
func TestTunedMatchesUntunedReference(t *testing.T) {
	type tcase struct {
		name string
		g    *Graph
	}
	cases := []tcase{{"diamond", diamondGraph()}}
	for _, seed := range []int64{42, 7, 99, 5} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 8; trial++ {
			n := 2 + rng.Intn(40)
			cases = append(cases, tcase{name: "rand", g: randGraph(rng, n)})
		}
	}
	for i, tc := range cases {
		for _, r := range retrievals {
			opts := Options{ForcedFirst: 0}
			got, err := r.layout(tc.g, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := untunedLayout(tc.g, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d (%s) %s: tuned layout diverged from untuned reference\ntuned   %v\nuntuned %v",
					i, tc.name, r.name, got, want)
			}
			if gs, ws := Score(tc.g, got), Score(tc.g, want); gs != ws {
				t.Fatalf("case %d (%s) %s: tuned score %v != untuned score %v", i, tc.name, r.name, gs, ws)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Untuned reference: the pre-tuning formulation. Chain base scores are
// recomputed from scratch for every candidate, position tables are maps,
// and neighbor sets are map-deduplicated — the exact data-structure shape
// the production code had before the inner-loop tuning. Exploration and
// retrieval order match production, so layouts must be identical.

type refChain struct {
	id    int
	nodes []int
	size  int64
	count uint64
	gen   int
	dead  bool
}

type refState struct {
	g       *Graph
	opts    Options
	chains  []*refChain
	owner   []int
	nodeOut [][]int
	nodeIn  [][]int
}

func newRefState(g *Graph, opts Options) *refState {
	st := &refState{g: g, opts: opts}
	st.chains = make([]*refChain, len(g.Nodes))
	st.owner = make([]int, len(g.Nodes))
	for i := range g.Nodes {
		st.chains[i] = &refChain{id: i, nodes: []int{i}, size: g.Nodes[i].Size, count: g.Nodes[i].Count}
		st.owner[i] = i
	}
	st.nodeOut = make([][]int, len(g.Nodes))
	st.nodeIn = make([][]int, len(g.Nodes))
	for ei, e := range g.Edges {
		if e.Src == e.Dst || e.Weight == 0 {
			continue
		}
		st.nodeOut[e.Src] = append(st.nodeOut[e.Src], ei)
		st.nodeIn[e.Dst] = append(st.nodeIn[e.Dst], ei)
	}
	return st
}

func (st *refState) neighbors(c *refChain) []int {
	seen := map[int]bool{c.id: true}
	var out []int
	for _, node := range c.nodes {
		for _, ei := range st.nodeOut[node] {
			if o := st.owner[st.g.Edges[ei].Dst]; !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
		for _, ei := range st.nodeIn[node] {
			if o := st.owner[st.g.Edges[ei].Src]; !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
	}
	sort.Ints(out)
	return out
}

func (st *refState) chainScore(nodes []int) float64 {
	if len(nodes) == 1 {
		return 0
	}
	pos := make(map[int]int64, len(nodes))
	addr := int64(0)
	for _, nd := range nodes {
		pos[nd] = addr
		addr += st.g.Nodes[nd].Size
	}
	var total float64
	for _, nd := range nodes {
		for _, ei := range st.nodeOut[nd] {
			e := st.g.Edges[ei]
			dp, ok := pos[e.Dst]
			if !ok {
				continue
			}
			total += st.opts.Params.normalize().edgeGain(e.Weight, pos[e.Src]+st.g.Nodes[e.Src].Size, dp)
		}
	}
	return total
}

// refCandidate is the reference's merge candidate: the materialised order
// production no longer carries.
type refCandidate struct {
	gain       float64
	x, y       int
	xGen, yGen int
	order      []int
}

// refHeap orders refCandidates as candidateHeap orders mergeCandidates.
type refHeap []refCandidate

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	if h[i].x != h[j].x {
		return h[i].x < h[j].x
	}
	return h[i].y < h[j].y
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refCandidate)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

func (st *refState) bestMerge(x, y *refChain) (refCandidate, bool) {
	baseX := st.chainScore(x.nodes)
	baseY := st.chainScore(y.nodes)
	forced := st.opts.ForcedFirst
	legal := func(seq []int) bool {
		if forced < 0 {
			return true
		}
		if st.owner[forced] != x.id && st.owner[forced] != y.id {
			return true
		}
		return seq[0] == forced
	}
	best := refCandidate{gain: -1, x: x.id, y: y.id, xGen: x.gen, yGen: y.gen}
	try := func(seq []int) {
		if !legal(seq) {
			return
		}
		gain := st.chainScore(seq) - baseX - baseY
		if gain > best.gain {
			best.gain = gain
			best.order = seq
		}
	}
	concat := func(a, b []int) []int {
		out := make([]int, 0, len(a)+len(b))
		out = append(out, a...)
		return append(out, b...)
	}
	try(concat(x.nodes, y.nodes))
	try(concat(y.nodes, x.nodes))
	if len(x.nodes) <= st.opts.maxSplit() {
		for i := 1; i < len(x.nodes); i++ {
			seq := make([]int, 0, len(x.nodes)+len(y.nodes))
			seq = append(seq, x.nodes[:i]...)
			seq = append(seq, y.nodes...)
			seq = append(seq, x.nodes[i:]...)
			try(seq)
		}
	}
	if best.order == nil || best.gain <= 0 {
		return best, false
	}
	return best, true
}

func (st *refState) applyMerge(c refCandidate) {
	x := st.chains[c.x]
	y := st.chains[c.y]
	x.nodes = c.order
	x.size += y.size
	x.count += y.count
	x.gen++
	y.dead = true
	y.gen++
	for _, nd := range y.nodes {
		st.owner[nd] = x.id
	}
}

func (st *refState) runHeap() {
	h := &refHeap{}
	push := func(x, y *refChain) {
		if c, ok := st.bestMerge(x, y); ok {
			heap.Push(h, c)
		}
	}
	for _, x := range st.chains {
		for _, yid := range st.neighbors(x) {
			if yid > x.id {
				push(x, st.chains[yid])
			}
		}
	}
	for h.Len() > 0 {
		c := heap.Pop(h).(refCandidate)
		x, y := st.chains[c.x], st.chains[c.y]
		if x.dead || y.dead || x.gen != c.xGen || y.gen != c.yGen {
			continue
		}
		st.applyMerge(c)
		for _, nid := range st.neighbors(x) {
			nb := st.chains[nid]
			if nb.dead {
				continue
			}
			if nb.id < x.id {
				push(nb, x)
			} else {
				push(x, nb)
			}
		}
	}
}

func (st *refState) finalOrder() []int {
	var live []*refChain
	for _, c := range st.chains {
		if !c.dead {
			live = append(live, c)
		}
	}
	forced := st.opts.ForcedFirst
	density := func(c *refChain) float64 {
		if c.size == 0 {
			return float64(c.count)
		}
		return float64(c.count) / float64(c.size)
	}
	sort.SliceStable(live, func(i, j int) bool {
		ci, cj := live[i], live[j]
		fi := forced >= 0 && st.owner[forced] == ci.id
		fj := forced >= 0 && st.owner[forced] == cj.id
		if fi != fj {
			return fi
		}
		di, dj := density(ci), density(cj)
		if di != dj {
			return di > dj
		}
		return ci.id < cj.id
	})
	var order []int
	for _, c := range live {
		order = append(order, c.nodes...)
	}
	return order
}

func untunedLayout(g *Graph, opts Options) []int {
	if len(g.Nodes) == 0 {
		return nil
	}
	st := newRefState(g, opts)
	st.runHeap()
	return st.finalOrder()
}
