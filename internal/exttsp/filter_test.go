package exttsp

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// materialise spells out the merged order a split point denotes.
func materialise(x, y *chain, split int) []int {
	out := append([]int(nil), x.nodes[:split]...)
	out = append(out, y.nodes...)
	return append(out, x.nodes[split:]...)
}

// lockStats is what one lockstep run compared.
type lockStats struct {
	calls int // bestMerge calls
	ySide int // pairs price collects from y's side
	// Over the candidates bestMerge refines in the pairs runHeap scores
	// (every pair before the first merge, then the merged chain's): the
	// nodes viewScore folds, and those refine was seen to skip by starting
	// from a cached fold.
	folded, skipped int
	// Over every legal X·Y and Y·X candidate: those whose refinement reads
	// a cached edge gain in a node's run before its exit, and those that
	// read one past a node's exit (a node with an edge leaving its chain).
	inRun, pastExit int
}

// lockstep drives production and the materialising reference through one
// naive-retrieval run side by side and compares them on every bestMerge
// call: same verdict, same gain, same canonical score, same merged order.
// It also holds the filter to its contract: every candidate price lands
// within eps of the candidate's canonical gain, and price explores exactly
// as many candidates as the reference builds. And it holds the cached
// start to viewScore: price's cross edges and fx/fy are those a walk of x
// finds, whichever side it walked; refine equals viewScore bit for bit on
// every legal candidate, and reads a poisoned cached edge gain wherever
// it must; and after every merge each node's fold is the running prefix
// of a from-scratch fold of its chain, and every live chain's cached
// gains and exits are those a from-scratch walk finds.
func lockstep(t *testing.T, g *Graph, opts Options) lockStats {
	t.Helper()
	st, ref := newState(g, opts), newRefState(g, opts)
	var stats lockStats
	merged := -1 // the chain the last merge rewrote
	checkGains(t, st)
	for {
		var best mergeCandidate
		var refBest refCandidate
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
				stats.calls++

				xFirst, yFirst := st.legalFirsts(x, y)
				approx, eps, fx, fy := st.price(&st.sc, x, y, xFirst, yFirst)
				approx = append([]float64(nil), approx...) // price's scratch is reused
				nx, ny := len(x.nodes), len(y.nodes)
				want := 2
				if nx <= opts.maxSplit() {
					want = nx + 1
				}
				if len(approx) != want {
					t.Fatalf("pair (%d,%d): priced %d candidates, reference explores %d", x.id, y.id, len(approx), want)
				}
				wantCross, wantFx, wantFy := xSideCross(st, x, y)
				if !reflect.DeepEqual(sortCross(st.sc.cross), sortCross(wantCross)) {
					t.Fatalf("pair (%d,%d): price collected cross edges\n%v\nwalking x finds\n%v", x.id, y.id, st.sc.cross, wantCross)
				}
				if fx != wantFx || fy != wantFy {
					t.Fatalf("pair (%d,%d): price says fx=%d fy=%d, want %d %d", x.id, y.id, fx, fy, wantFx, wantFy)
				}
				if ny < nx && (!xFirst || want == 2) {
					stats.ySide++
				}
				top := math.Inf(-1)
				for k, a := range approx {
					if legal(k, xFirst, yFirst) {
						top = max(top, a)
					}
				}
				for k, a := range approx {
					if !legal(k, xFirst, yFirst) {
						continue
					}
					split := splitOf(k, nx)
					view := st.viewScore(x, y, split)
					if r := st.refine(x, y, split, fx, fy); math.Float64bits(r) != math.Float64bits(view) {
						t.Fatalf("pair (%d,%d) split %d (fx=%d fy=%d): refine %v != viewScore %v", x.id, y.id, split, fx, fy, r, view)
					}
					inRun, pastExit := cachedGain(t, st, x, y, split, fx, fy)
					stats.inRun += b2i(inRun)
					stats.pastExit += b2i(pastExit)
					canon := view - x.score - y.score
					if !(math.Abs(a-canon) <= eps) {
						t.Fatalf("pair (%d,%d) candidate %d: approx %v vs canonical %v differ by %g > eps %g",
							x.id, y.id, k, a, canon, math.Abs(a-canon), eps)
					}
					if a >= top-2*eps && (merged < 0 || x.id == merged || y.id == merged) {
						stats.folded += nx + ny
						stats.skipped += cachedStart(st, x, y, split, fx, fy)
					}
				}

				c, ok := st.bestMerge(&st.sc, x, y)
				rc, rok := ref.bestMerge(ref.chains[x.id], ref.chains[yid])
				if ok != rok {
					t.Fatalf("pair (%d,%d): production ok=%v gain=%v, reference ok=%v gain=%v", x.id, y.id, ok, c.gain, rok, rc.gain)
				}
				if !ok {
					continue
				}
				if c.gain != rc.gain {
					t.Fatalf("pair (%d,%d): gain %v != reference %v", x.id, y.id, c.gain, rc.gain)
				}
				if s := ref.chainScore(rc.order); c.score != s {
					t.Fatalf("pair (%d,%d): score %v != reference %v", x.id, y.id, c.score, s)
				}
				if got := materialise(x, y, c.split); !reflect.DeepEqual(got, rc.order) {
					t.Fatalf("pair (%d,%d): order\n got %v\nwant %v", x.id, y.id, got, rc.order)
				}
				if !found || c.gain > best.gain {
					best, refBest, found = c, rc, true
				}
			}
		}
		if !found {
			break
		}
		st.applyMerge(best)
		ref.applyMerge(refBest)
		checkFold(t, st, st.chains[best.x])
		checkGains(t, st)
		merged = best.x
	}
	if got, want := st.finalOrder(), ref.finalOrder(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final order\n got %v\nwant %v", got, want)
	}
	return stats
}

// xSideCross is what price collects walking x's nodes: every x<->y edge
// of the adjacency, and the first index in x of a node with an edge into
// y and in y of one with an edge into x.
func xSideCross(st *state, x, y *chain) (cross []crossEdge, fx, fy int) {
	fx, fy = len(x.nodes), len(y.nodes)
	end := func(nd int) int64 { return st.off[nd] + st.g.Nodes[nd].Size }
	for i, u := range x.nodes {
		for _, ei := range st.nodeOut[u] {
			if e := st.g.Edges[ei]; st.owner[e.Dst] == y.id {
				cross = append(cross, crossEdge{w: e.Weight, srcEnd: end(u), dst: st.off[e.Dst], xi: i, fromX: true})
				fx = min(fx, i)
			}
		}
		for _, ei := range st.nodeIn[u] {
			if e := st.g.Edges[ei]; st.owner[e.Src] == y.id {
				cross = append(cross, crossEdge{w: e.Weight, srcEnd: end(e.Src), dst: st.off[u], xi: i})
				fy = min(fy, st.idx[e.Src])
			}
		}
	}
	return cross, fx, fy
}

// sortCross returns a sorted copy of a cross-edge multiset.
func sortCross(cross []crossEdge) []crossEdge {
	out := append([]crossEdge{}, cross...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.w != b.w {
			return a.w < b.w
		}
		if a.srcEnd != b.srcEnd {
			return a.srcEnd < b.srcEnd
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.xi != b.xi {
			return a.xi < b.xi
		}
		return !a.fromX && b.fromX
	})
	return out
}

// cachedStart returns how many nodes refine skipped on split, proven by
// poisoning the fold entry it must start from with NaN: 0 when it folded
// from scratch.
func cachedStart(st *state, x, y *chain, split, fx, fy int) int {
	var nd, skip int
	switch {
	case split == len(x.nodes) && fx > 0:
		nd, skip = x.nodes[fx-1], fx
	case split == 0 && fy > 0:
		nd, skip = y.nodes[fy-1], fy
	default:
		return 0
	}
	saved := st.fold[nd]
	st.fold[nd] = math.NaN()
	defer func() { st.fold[nd] = saved }()
	if !math.IsNaN(st.refine(x, y, split, fx, fy)) {
		return 0
	}
	return skip
}

// cachedGain poisons, one at a time, two cached edge gains that refine's
// X·Y or Y·X fold of (x, y) must read — the first one before its node's
// exit, added in a run, and the first one past it, which the per-edge
// walk of a node with an edge leaving its chain adds — and fails unless
// refine returns NaN. It reports which of the two there were.
func cachedGain(t *testing.T, st *state, x, y *chain, split, fx, fy int) (inRun, pastExit bool) {
	t.Helper()
	type run struct {
		seg []int
		c   *chain
	}
	var runs []run
	switch split {
	case len(x.nodes):
		runs = []run{{x.nodes[fx:], x}, {y.nodes, y}}
	case 0:
		runs = []run{{y.nodes[fy:], y}, {x.nodes, x}}
	default:
		return false, false
	}
	slots := [2]int{-1, -1} // before the exit, past it
	for _, r := range runs {
		for _, nd := range r.seg {
			for j, ei := range st.nodeOut[nd] {
				if k := b2i(j >= st.exit[nd]); slots[k] < 0 && st.owner[st.g.Edges[ei].Dst] == r.c.id {
					slots[k] = st.tOff[nd] + j
				}
			}
		}
	}
	for k, slot := range slots {
		if slot < 0 {
			continue
		}
		saved := st.gain[slot]
		st.gain[slot] = math.NaN()
		r := st.refine(x, y, split, fx, fy)
		st.gain[slot] = saved
		if !math.IsNaN(r) {
			t.Fatalf("pair (%d,%d) split %d: refine %v did not read the cached gain at %d (past the exit: %v)", x.id, y.id, split, r, slot, k == 1)
		}
	}
	return slots[0] >= 0, slots[1] >= 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkGains holds every live chain's cached edge gains to edgeGain on
// offsets summed from the sizes, by bits, and each node's exit to the
// index of its first out-edge whose target is not in the node list.
func checkGains(t *testing.T, st *state) {
	t.Helper()
	for _, c := range st.chains {
		if c.dead {
			continue
		}
		pos := map[int]int64{}
		var addr int64
		for _, nd := range c.nodes {
			pos[nd] = addr
			addr += st.g.Nodes[nd].Size
		}
		for _, nd := range c.nodes {
			exit := len(st.nodeOut[nd])
			for j, ei := range st.nodeOut[nd] {
				e := st.g.Edges[ei]
				dst, ok := pos[e.Dst]
				if !ok {
					exit = min(exit, j)
					continue
				}
				want := st.pr.edgeGain(e.Weight, pos[nd]+st.g.Nodes[nd].Size, dst)
				if got := st.gain[st.tOff[nd]+j]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("chain %d node %d edge %d->%d: cached gain %v, from scratch %v", c.id, nd, nd, e.Dst, got, want)
				}
			}
			if st.exit[nd] != exit {
				t.Fatalf("chain %d node %d: exit %d, first out-edge leaving the chain is %d", c.id, nd, st.exit[nd], exit)
			}
		}
	}
}

// checkFold holds c's fold entries to a from-scratch fold of c's nodes —
// offsets summed from the sizes, members from the node list — and its
// last entry to c's score.
func checkFold(t *testing.T, st *state, c *chain) {
	t.Helper()
	pos := map[int]int64{}
	var addr int64
	for _, nd := range c.nodes {
		pos[nd] = addr
		addr += st.g.Nodes[nd].Size
	}
	var total float64
	for i, nd := range c.nodes {
		for _, ei := range st.nodeOut[nd] {
			e := st.g.Edges[ei]
			if dst, ok := pos[e.Dst]; ok {
				total += st.pr.edgeGain(e.Weight, pos[nd]+st.g.Nodes[nd].Size, dst)
			}
		}
		if math.Float64bits(st.fold[nd]) != math.Float64bits(total) {
			t.Fatalf("chain %d node %d (index %d): fold %v, from-scratch prefix %v", c.id, nd, i, st.fold[nd], total)
		}
	}
	if last := st.fold[c.nodes[len(c.nodes)-1]]; math.Float64bits(last) != math.Float64bits(c.score) {
		t.Fatalf("chain %d: last fold %v != score %v", c.id, last, c.score)
	}
}

// matchesReference holds Layout, and with naive the quadratic rescan as
// well, to the materialising reference, node for node.
func matchesReference(t *testing.T, g *Graph, opts Options, naive bool) {
	t.Helper()
	layouts := []func(*Graph, Options) ([]int, error){Layout}
	if naive {
		layouts = append(layouts, layoutNaive)
	}
	want := untunedLayout(g, opts)
	for i, layout := range layouts {
		got, err := layout(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("naive=%v: layout diverged from the reference\n got %v\nwant %v", i == 1, got, want)
		}
	}
}

// TestBestMergeMatchesReference is the per-call differential between the
// filter-and-refine bestMerge and the reference that materialises and
// rescans every candidate, over whole runs on random graphs.
func TestBestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	policies := []Params{
		{},
		{ForwardWeight: 0.4, BackwardWeight: 0.05},  // fw-heavy
		{ForwardWindow: 2048, BackwardWindow: 1280}, // window-2x
	}
	var calls, ySide int
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(60)
		g := fuzzGraph(rng, n)
		if trial%2 == 0 {
			g = randGraph(rng, n)
		}
		opts := Options{ForcedFirst: rng.Intn(n+1) - 1, Params: policies[trial%len(policies)]}
		if trial%4 == 3 {
			opts.MaxSplitChain = 1 + rng.Intn(6)
		}
		s := lockstep(t, g, opts)
		calls += s.calls
		ySide += s.ySide
	}
	if calls < 10000 || ySide < 1000 {
		t.Errorf("only %d bestMerge calls compared, %d of them priced from y's side", calls, ySide)
	}
}

// TestCachedStartEngages: on a heavy backbone that grows by appending, the
// X·Y refinements that decide each merge start from the backbone's cached
// fold, so refine skips at least half of what viewScore would fold (85%
// here). Without this check, a refine that always fell back to viewScore
// would pass every oracle. The backbone is bare: a leaf's X·Y must leave
// the cached fold at the backbone's first edge into the leaf, which can
// be anywhere.
func TestCachedStartEngages(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := backboneGraph(rng, 48, 0, 3, func() int64 { return int64(1 + rng.Intn(64)) })
	if s := lockstep(t, g, Options{ForcedFirst: 0}); 2*s.skipped < s.folded {
		t.Errorf("refine skipped %d of the %d nodes viewScore folds", s.skipped, s.folded)
	}
}

// TestCachedGainsEngage: on a backbone with leaves, the X·Y and Y·X
// refinements read the chains' cached edge gains — lockstep poisons one
// per candidate and fails unless refine returns NaN — both from a node
// whose out-edges all stay in its chain and past the exit of one with an
// edge to a leaf. The edges are listed leaves first, so a backbone node's
// edge into a leaf not yet merged comes before its backbone edge. Without
// this check, a refine that recomputed every edge gain would pass every
// oracle.
func TestCachedGainsEngage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := backboneGraph(rng, 48, 8, 3, func() int64 { return int64(1 + rng.Intn(64)) })
	slices.Reverse(g.Edges)
	s := lockstep(t, g, Options{ForcedFirst: 0})
	if s.inRun < 200 || s.pastExit < 200 {
		t.Errorf("refine read a poisoned gain before a node's exit on %d candidates, past it on %d", s.inRun, s.pastExit)
	}
}

// backboneGraph is a heavy chain 0→1→…→m-1, which merges into one long x,
// plus leaves attached to several backbone nodes each with the one weight
// w: every split of the backbone prices a leaf alike, up to distance.
func backboneGraph(rng *rand.Rand, m, leaves int, w uint64, size func() int64) *Graph {
	g := &Graph{Nodes: make([]Node, m+leaves)}
	for i := range g.Nodes {
		g.Nodes[i] = Node{Size: size(), Count: uint64(1 + rng.Intn(50))}
	}
	for i := 0; i+1 < m; i++ {
		g.Edges = append(g.Edges, Edge{Src: i, Dst: i + 1, Weight: 1000 * w})
	}
	for l := m; l < m+leaves; l++ {
		for k := 0; k < 4; k++ {
			g.Edges = append(g.Edges, Edge{Src: rng.Intn(m), Dst: l, Weight: w}, Edge{Src: l, Dst: rng.Intn(m), Weight: w})
		}
	}
	return g
}

// TestEdgeCasesMatchReference: the inputs where pricing a merge from
// offsets and a filter could part ways with scoring the built order —
// zero-size nodes (several nodes share an offset, so only the index says
// which side of a split a node is on), exact ties, sums that leave the
// 53-bit mantissa, degenerate windows, every position of the forced
// node, and chains on both sides of MaxSplitChain.
func TestEdgeCasesMatchReference(t *testing.T) {
	fixed := func(s int64) func() int64 { return func() int64 { return s } }
	type row struct {
		name string
		g    func(rng *rand.Rand) *Graph
		opts Options
		// heapOnly skips the naive rescan, cubic in a 160-node backbone.
		heapOnly bool
	}
	zeroHeavy := func(rng *rand.Rand) *Graph {
		g := fuzzGraph(rng, 40)
		for i := range g.Nodes {
			if rng.Intn(2) == 0 {
				g.Nodes[i].Size = 0
			}
		}
		return g
	}
	rows := []row{
		{name: "zero-size at split boundaries", g: func(rng *rand.Rand) *Graph {
			sizes := []int64{0, 0, 16, 0}
			return backboneGraph(rng, 12, 6, 3, func() int64 { return sizes[rng.Intn(len(sizes))] })
		}, opts: Options{ForcedFirst: -1}},
		{name: "half the nodes zero-size", g: zeroHeavy, opts: Options{ForcedFirst: -1}},
		{name: "every node zero-size", g: func(rng *rand.Rand) *Graph {
			return backboneGraph(rng, 10, 5, 2, fixed(0))
		}, opts: Options{ForcedFirst: 0}},
		{name: "equal-weight star, every split ties", g: func(rng *rand.Rand) *Graph {
			return backboneGraph(rng, 16, 8, 7, fixed(2000)) // every non-adjacent jump is out of window
		}, opts: Options{ForcedFirst: -1}},
		{name: "equal weights inside the windows", g: func(rng *rand.Rand) *Graph {
			return backboneGraph(rng, 16, 8, 7, fixed(8))
		}, opts: Options{ForcedFirst: -1}},
		{name: "weights near 2^40", g: func(rng *rand.Rand) *Graph {
			g := fuzzGraph(rng, 40)
			for i := range g.Edges {
				g.Edges[i].Weight += 1<<40 - 50
			}
			return g
		}, opts: Options{ForcedFirst: -1}},
		{name: "1-byte windows", g: zeroHeavy, opts: Options{ForcedFirst: -1, Params: Params{ForwardWindow: 1, BackwardWindow: 1}}},
		{name: "negative weight (filter off)", g: zeroHeavy, opts: Options{ForcedFirst: -1, Params: Params{BackwardWeight: -0.05}}},
		{name: "forced node inside x", g: func(rng *rand.Rand) *Graph { return fuzzGraph(rng, 40) }, opts: Options{ForcedFirst: 0}},
		{name: "forced node inside y", g: func(rng *rand.Rand) *Graph { return fuzzGraph(rng, 40) }, opts: Options{ForcedFirst: 39}},
		{name: "forced node mid-graph", g: func(rng *rand.Rand) *Graph { return fuzzGraph(rng, 40) }, opts: Options{ForcedFirst: 17}},
		{name: "no forced node", g: func(rng *rand.Rand) *Graph { return fuzzGraph(rng, 40) }, opts: Options{ForcedFirst: -1}},
		{name: "MaxSplitChain 1", g: func(rng *rand.Rand) *Graph { return randGraph(rng, 40) }, opts: Options{ForcedFirst: 0, MaxSplitChain: 1}},
		{name: "MaxSplitChain 5, chains on both sides", g: func(rng *rand.Rand) *Graph {
			return backboneGraph(rng, 14, 8, 5, fixed(24))
		}, opts: Options{ForcedFirst: -1, MaxSplitChain: 5}},
		{name: "default MaxSplitChain crossed", g: func(rng *rand.Rand) *Graph {
			return backboneGraph(rng, 160, 12, 5, func() int64 { return int64(rng.Intn(3)) * 8 })
		}, opts: Options{ForcedFirst: 0}, heapOnly: true},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				g := r.g(rand.New(rand.NewSource(seed)))
				matchesReference(t, g, r.opts, !r.heapOnly)
				if r.heapOnly {
					continue
				}
				lockstep(t, g, r.opts)
			}
		})
	}
}

// TestLayoutAllocs pins the allocation shape of one Layout: state set-up
// is a fixed number of allocations, a merge grows one node slice at most,
// and pricing or refining a candidate allocates nothing — so the count
// stays under a ceiling linear in nodes (1 733 measured). One allocation
// per candidate built would be about 680 000 on this graph.
func TestLayoutAllocs(t *testing.T) {
	const n = 2000
	g := fuzzGraph(rand.New(rand.NewSource(2000)), n)
	opts := Options{ForcedFirst: -1}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Layout(g, opts); err != nil {
			t.Fatal(err)
		}
	})
	// At most n-1 merges, each one append; the heap is allocated once and
	// the scratch buffers grow by doubling.
	if ceiling := float64(64 + 2*n); allocs > ceiling {
		t.Errorf("Layout of %d nodes made %.0f allocations, want <= %.0f", n, allocs, ceiling)
	}
}

// TestLayoutSerialAllocs pins what one per-function Layout call allocates
// — the path of every intra-procedural workload, thousands of calls per
// relink. The bound tiers' per-node sums live in newState's slabs and the
// heap is allocated once, at its final capacity.
func TestLayoutSerialAllocs(t *testing.T) {
	g := fuzzGraph(rand.New(rand.NewSource(64)), 64)
	opts := Options{ForcedFirst: 0}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Layout(g, opts); err != nil {
			t.Fatal(err)
		}
	})
	const want = 88
	if allocs != want {
		t.Errorf("Layout of a 64-node graph made %.0f allocations, want %d", allocs, want)
	}
}
