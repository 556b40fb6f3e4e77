// Package exttsp implements the Ext-TSP basic block reordering algorithm of
// Newell and Pupyrev ("Improved Basic Block Reordering", [49] in the paper),
// which Propeller's whole-program analysis uses for both intra-function and
// inter-procedural layout (§3.3, §4.7).
//
// Ext-TSP maximizes a proximity score over a weighted control-flow graph:
// an edge contributes its full weight when target directly follows source
// (fall-through), and a decaying fraction for short forward or backward
// jumps. The optimizer greedily merges chains of blocks by the most
// profitable merge. Two retrieval strategies are provided:
//
//   - naive: rescan all chain pairs per merge, the textbook formulation;
//   - heap: a priority queue with lazy invalidation, the "logarithmic time
//     retrieval of the most profitable action" improvement §4.7 describes
//     as necessary at warehouse scale.
//
// Both strategies evaluate the same candidate set with the same
// tie-breaking and produce identical layouts; only the retrieval cost
// differs, which is what the ablation benchmark measures.
//
// A merge is priced without being built. A candidate is a split point —
// the order x[:i]·y·x[i:] — and bestMerge is filter-and-refine: price
// approximates every candidate's gain from the few edges a merge can
// move, with a proven bound eps on its distance from the canonical gain;
// only the candidates that could still win are refined with the
// canonical score (viewScore, a left-to-right float64 fold over the
// three sub-ranges, allocation-free, which refine starts from a chain's
// cached per-node fold and continues over its cached per-edge terms where
// it can); applyMerge materialises the one winning order. The canonical
// fold is kept, rather than replaced by the cheaper delta, because its
// summation order is part of every layout emitted so far (a pair whose
// real gain is 0 can read +1e-10 and merge) and those layouts are
// byte-identical by contract: the price only ever decides what is not
// worth folding, never which merge wins or what gain and score a
// candidate carries. DESIGN.md item 10 derives eps.
package exttsp

import (
	"fmt"
	"math"
	"sort"
)

// Default scoring constants from the Ext-TSP model (Newell & Pupyrev's
// published parameters). They are documentation and the zero-value
// resolution of Params — the scoring loops never read them directly, so
// evaluating several parameterizations concurrently is race-free.
const (
	FallthroughWeight = 1.0
	ForwardWeight     = 0.1
	BackwardWeight    = 0.1
	ForwardWindow     = 1024 // bytes
	BackwardWindow    = 640  // bytes
)

// Params are the Ext-TSP proximity-scoring parameters. The zero value
// means "the paper defaults" field by field: any field left at zero
// resolves to the matching package constant, so Params{} scores exactly
// like the historical package-level constants did (a property pinned by
// the golden-defaults test). To effectively disable a weight, pass a
// tiny non-zero value rather than zero.
type Params struct {
	// FallthroughWeight scales an edge whose target directly follows its
	// source (0 = FallthroughWeight, the default 1.0).
	FallthroughWeight float64
	// ForwardWeight scales a short forward jump (0 = ForwardWeight, 0.1).
	ForwardWeight float64
	// BackwardWeight scales a short backward jump (0 = BackwardWeight, 0.1).
	BackwardWeight float64
	// ForwardWindow is the forward-jump decay window in bytes
	// (0 = ForwardWindow, 1024).
	ForwardWindow int64
	// BackwardWindow is the backward-jump decay window in bytes
	// (0 = BackwardWindow, 640).
	BackwardWindow int64
}

// Resolve returns p with every zero field replaced by its paper-default
// value — the concrete parameterization the zero value denotes. Callers
// that fingerprint Params (e.g. layout-policy cache keys) should resolve
// first so a zero Params and an explicitly-spelled default never alias
// to different keys.
func (p Params) Resolve() Params {
	return p.normalize()
}

// normalize resolves zero fields to the paper defaults.
func (p Params) normalize() Params {
	if p.FallthroughWeight == 0 {
		p.FallthroughWeight = FallthroughWeight
	}
	if p.ForwardWeight == 0 {
		p.ForwardWeight = ForwardWeight
	}
	if p.BackwardWeight == 0 {
		p.BackwardWeight = BackwardWeight
	}
	if p.ForwardWindow == 0 {
		p.ForwardWindow = ForwardWindow
	}
	if p.BackwardWindow == 0 {
		p.BackwardWindow = BackwardWindow
	}
	return p
}

// Node is one layout unit (a basic block) with its code size and execution
// count.
type Node struct {
	Size  int64
	Count uint64
}

// Edge is a weighted directed edge between node indices.
type Edge struct {
	Src, Dst int
	Weight   uint64
}

// Graph is the weighted CFG handed to the optimizer.
type Graph struct {
	Nodes []Node
	Edges []Edge
}

// Options configure a layout run.
type Options struct {
	// ForcedFirst, when >= 0, pins the given node to position 0 of the
	// final order (the function entry for intra-function layout).
	ForcedFirst int

	// UseHeap selects the priority-queue merge retrieval; false selects
	// the naive quadratic rescan (kept for the ablation benchmark).
	UseHeap bool

	// MaxSplitChain bounds the chain length for which split-point merges
	// (X1-Y-X2) are explored; longer chains only try concatenations.
	// Zero means 128.
	MaxSplitChain int

	// Params are the proximity-scoring parameters; the zero value selects
	// the paper defaults.
	Params Params
}

func (o Options) maxSplit() int {
	if o.MaxSplitChain > 0 {
		return o.MaxSplitChain
	}
	return 128
}

// edgeGain scores one edge given the source end offset and target start
// offset in a candidate layout. The receiver must be normalized: every
// caller holds a normalize()d copy, so the hot loop never re-resolves
// defaults (and two goroutines with different Params never share state).
func (p Params) edgeGain(weight uint64, srcEnd, dstStart int64) float64 {
	w := float64(weight)
	if dstStart == srcEnd {
		return p.FallthroughWeight * w
	}
	if dstStart > srcEnd {
		d := dstStart - srcEnd
		if d < p.ForwardWindow {
			return p.ForwardWeight * w * (1 - float64(d)/float64(p.ForwardWindow))
		}
		return 0
	}
	d := srcEnd - dstStart
	if d < p.BackwardWindow {
		return p.BackwardWeight * w * (1 - float64(d)/float64(p.BackwardWindow))
	}
	return 0
}

// Scratch holds reusable buffers for repeated Score evaluations, so hot
// scoring loops (benchmarks, equivalence checks) stop allocating per call.
// The zero value is ready to use; a Scratch must not be shared between
// goroutines.
type Scratch struct {
	offset []int64
	gen    []int64
	epoch  int64
}

func (s *Scratch) grow(n int) {
	if len(s.offset) < n {
		s.offset = make([]int64, n)
		s.gen = make([]int64, n)
		s.epoch = 0
	}
}

// Score evaluates the Ext-TSP objective of a complete order (a permutation
// of node indices) under the default scoring parameters.
func Score(g *Graph, order []int) float64 {
	return ScoreWith(g, order, Params{}, nil)
}

// ScoreWith is Score under explicit scoring parameters, with
// caller-provided scratch buffers; nil scratch allocates fresh ones.
// Reusing one Scratch across calls keeps repeated scoring
// allocation-free.
func ScoreWith(g *Graph, order []int, p Params, s *Scratch) float64 {
	if s == nil {
		s = &Scratch{}
	}
	p = p.normalize()
	s.grow(len(g.Nodes))
	s.epoch++
	ep := s.epoch
	addr := int64(0)
	for _, n := range order {
		s.offset[n] = addr
		s.gen[n] = ep
		addr += g.Nodes[n].Size
	}
	var total float64
	for _, e := range g.Edges {
		if s.gen[e.Src] != ep || s.gen[e.Dst] != ep {
			continue
		}
		total += p.edgeGain(e.Weight, s.offset[e.Src]+g.Nodes[e.Src].Size, s.offset[e.Dst])
	}
	return total
}

// chain is a working unit of the merge process.
type chain struct {
	id    int
	nodes []int
	size  int64
	count uint64
	// score is the canonical fold of nodes (viewScore over the chain
	// alone). It only changes when a merge rewrites the chain, so
	// bestMerge never rescans a chain to learn its base score.
	score float64
	// deg is the summed out-degree of nodes: an upper bound on the number
	// of terms in a fold over the chain, which sizes the filter's ε.
	deg  int
	gen  int  // incremented on every mutation (heap invalidation)
	dead bool // merged away
}

// validate rejects a forced-first node or an edge endpoint outside a
// non-empty g.
func validate(g *Graph, opts Options) error {
	n := len(g.Nodes)
	if opts.ForcedFirst >= n {
		return fmt.Errorf("exttsp: forced-first node %d out of range", opts.ForcedFirst)
	}
	for _, e := range g.Edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return fmt.Errorf("exttsp: edge (%d,%d) out of range", e.Src, e.Dst)
		}
	}
	return nil
}

// Layout computes a block order maximizing the Ext-TSP score.
func Layout(g *Graph, opts Options) ([]int, error) {
	if len(g.Nodes) == 0 {
		return nil, nil
	}
	if err := validate(g, opts); err != nil {
		return nil, err
	}
	st := newState(g, opts)
	st.run()
	return st.finalOrder(), nil
}

type state struct {
	g      *Graph
	opts   Options
	chains []*chain
	owner  []int   // node -> chain id
	off    []int64 // node -> byte offset inside its chain
	idx    []int   // node -> index inside its chain's nodes
	// fold[nd] is the canonical fold of nd's chain alone (viewScore's
	// order) up to and including nd, so a chain's score is the fold at its
	// last node. refold rewrites a chain's entries whenever the chain
	// changes; a singleton's is 0, as the adjacency holds no self-loop.
	fold []float64
	// gain[tOff[nd]+j] is the term of nd's j-th out-edge in the fold of
	// nd's chain alone, for an edge inside the chain, and nd's out-edges
	// end at tOff[nd+1]; exit[nd] is the index of nd's first out-edge that
	// leaves its chain (len(nodeOut[nd]) when none). refold writes a
	// chain's entries with its fold. A term reads only the distance
	// between its ends, so it holds in any order that keeps the chain
	// whole, wherever the chain starts. The zero values are right for
	// singletons: no term, and every out-edge leaves.
	gain []float64
	tOff []int
	exit []int
	// nodeOut/nodeIn index g.Edges by endpoint, ascending, without
	// self-loops and zero weights (neither affects inter-chain merging).
	nodeOut [][]int // node -> indices into g.Edges with Src == node
	nodeIn  [][]int // node -> indices into g.Edges with Dst == node

	// Reusable neighbor-dedup scratch indexed by chain id. An entry is
	// valid only when its stamp matches the current epoch, so nothing is
	// ever cleared.
	nbGen []int64
	epoch int64
	nbBuf []int // reused neighbor id buffer (invalidated by next call)

	// sc is the price scratch of the goroutine that owns st. Only that
	// goroutine ever writes a state (FormChains builds one per shard);
	// pool helpers scoring one of its batches bring their own scratch.
	sc priceScratch
	// pool, when non-nil, is LayoutParallel's helper pool and batch the
	// hand-off runHeap offers it, reused from merge to merge
	// (parallel.go). Layout leaves both nil and allocates for neither.
	pool  *pool
	batch *batch

	// pr is opts.Params resolved against the paper defaults, so scoring
	// never consults package-level state.
	pr Params
	// maxW is the largest scoring weight in pr, the per-unit-weight bound
	// on an edge's term in ε. It is +Inf under a negative weight: ε's
	// derivation needs non-negative terms, and an infinite ε makes
	// bestMerge refine every candidate.
	maxW float64
}

func newState(g *Graph, opts Options) *state {
	n := len(g.Nodes)
	st := &state{g: g, opts: opts, pr: opts.Params.normalize()}
	st.maxW = max(st.pr.FallthroughWeight, st.pr.ForwardWeight, st.pr.BackwardWeight)
	if !(min(st.pr.FallthroughWeight, st.pr.ForwardWeight, st.pr.BackwardWeight) >= 0) {
		st.maxW = math.Inf(1)
	}
	st.nodeOut, st.nodeIn, st.tOff = adjacency(g)
	st.chains = make([]*chain, n)
	ints := make([]int, 3*n)
	st.owner, st.idx, st.exit = ints[:n:n], ints[n:2*n:2*n], ints[2*n:]
	st.off = make([]int64, n)
	floats := make([]float64, n+st.tOff[n])
	st.fold, st.gain = floats[:n:n], floats[n:]
	st.nbGen = make([]int64, n)
	chains := make([]chain, n)
	ids := make([]int, n)
	for i := range g.Nodes {
		ids[i] = i
		// Capacity 1: the first merge into the chain reallocates, so
		// singleton chains never write into each other.
		chains[i] = chain{id: i, nodes: ids[i : i+1 : i+1], size: g.Nodes[i].Size, count: g.Nodes[i].Count, deg: len(st.nodeOut[i])}
		st.chains[i] = &chains[i]
		st.owner[i] = i
	}
	return st
}

// adjacency builds the per-node out- and in-edge index lists over one
// backing array, each list ascending in edge index (the order every fold
// visits a node's edges in). The out-lists lie end to end in node order:
// nd's is backing[tOff[nd]:tOff[nd+1]].
func adjacency(g *Graph) (out, in [][]int, tOff []int) {
	n := len(g.Nodes)
	skip := func(e Edge) bool { return e.Src == e.Dst || e.Weight == 0 }
	// Out-degrees, then in-degrees, each rewritten below to where its list
	// starts: tOff is the first n+1, since nd's out-list ends where the
	// next list starts. The spare entry is tOff[0] of an empty graph.
	deg := make([]int, 2*n+1)
	m := 0
	for _, e := range g.Edges {
		if skip(e) {
			continue
		}
		deg[e.Src]++
		deg[n+e.Dst]++
		m++
	}
	backing := make([]int, 2*m)
	lists := make([][]int, 2*n)
	p := 0
	for i, d := range deg[:2*n] {
		lists[i] = backing[p : p : p+d]
		deg[i] = p
		p += d
	}
	for ei, e := range g.Edges {
		if skip(e) {
			continue
		}
		lists[e.Src] = append(lists[e.Src], ei)
		lists[n+e.Dst] = append(lists[n+e.Dst], ei)
	}
	return lists[:n], lists[n:], deg[:n+1]
}

// run merges chains until no profitable merge is left, with the
// configured retrieval.
func (st *state) run() {
	if st.opts.UseHeap {
		st.runHeap()
	} else {
		st.runNaive()
	}
}

// neighbors returns the live chain ids connected to chain c, ascending.
// The returned slice is scratch owned by st and is overwritten by the
// next neighbors call.
func (st *state) neighbors(c *chain) []int {
	st.epoch++
	ep := st.epoch
	st.nbGen[c.id] = ep
	out := st.nbBuf[:0]
	for _, node := range c.nodes {
		for _, ei := range st.nodeOut[node] {
			o := st.owner[st.g.Edges[ei].Dst]
			if st.nbGen[o] != ep {
				st.nbGen[o] = ep
				out = append(out, o)
			}
		}
		for _, ei := range st.nodeIn[node] {
			o := st.owner[st.g.Edges[ei].Src]
			if st.nbGen[o] != ep {
				st.nbGen[o] = ep
				out = append(out, o)
			}
		}
	}
	sort.Ints(out)
	st.nbBuf = out
	return out
}

// A merge of chains x and y is identified by its split point i: the
// merged order is x[:i]·y·x[i:], so i = len(x) is X·Y, i = 0 is Y·X and
// 0 < i < len(x) is X₁·Y·X₂. A node's offset in that order is its offset
// in its own chain (st.off) plus a shift the split decides: y's nodes
// move by the byte offset of the split, x's nodes at index >= i (st.idx;
// zero-size nodes share offsets, so the index decides) by y.size.

// splitOff is the byte offset of split point i inside x.
func (st *state) splitOff(x *chain, i int) int64 {
	if i == len(x.nodes) {
		return x.size
	}
	return st.off[x.nodes[i]]
}

// viewScore is the canonical score of the merge of x and y at split: the
// Ext-TSP score of the merged order counting only edges internal to it,
// summed left to right over the order's nodes and each node's out-edges.
// That float64 fold, in that order, is what every stored score and gain
// is made of; nothing is materialised to compute it.
func (st *state) viewScore(x, y *chain, split int) float64 {
	s := st.splitOff(x, split)
	total := st.foldSegment(0, x.nodes[:split], 0, x, y, split, s)
	total = st.foldSegment(total, y.nodes, s, x, y, split, s)
	return st.foldSegment(total, x.nodes[split:], y.size, x, y, split, s)
}

// foldSegment continues viewScore's fold over one contiguous run of the
// merged order, whose nodes all move by shift.
func (st *state) foldSegment(total float64, seg []int, shift int64, x, y *chain, split int, s int64) float64 {
	for _, nd := range seg {
		srcEnd := st.off[nd] + shift + st.g.Nodes[nd].Size
		for _, ei := range st.nodeOut[nd] {
			e := &st.g.Edges[ei]
			dst := st.off[e.Dst]
			switch st.owner[e.Dst] {
			case y.id:
				dst += s
			case x.id:
				if st.idx[e.Dst] >= split {
					dst += y.size
				}
			default:
				continue
			}
			total += st.pr.edgeGain(e.Weight, srcEnd, dst)
		}
	}
	return total
}

// refine is viewScore(x, y, split), started from a chain's cached fold
// where it can be. X·Y adds exactly x's own fold terms, in x's order, up
// to x.nodes[fx], the first node with an out-edge into y; Y·X adds y's
// own up to y.nodes[fy] (x starts at offset 0, so y does not move). The
// prefix is the same edgeGain calls on the same integer offsets, added in
// the same order from 0, so starting from its fold is bit-exact. The rest
// of X·Y and Y·X keeps each chain whole, so foldWhole adds the cached
// terms of both chains' inner edges. Every split folds from scratch.
func (st *state) refine(x, y *chain, split, fx, fy int) float64 {
	var total float64
	switch split {
	case len(x.nodes):
		if fx > 0 {
			total = st.fold[x.nodes[fx-1]]
		}
		total = st.foldWhole(total, x.nodes[fx:], x, 0, y, x.size)
		return st.foldWhole(total, y.nodes, y, x.size, x, 0)
	case 0:
		if fy > 0 {
			total = st.fold[y.nodes[fy-1]]
		}
		total = st.foldWhole(total, y.nodes[fy:], y, 0, x, y.size)
		return st.foldWhole(total, x.nodes, x, y.size, y, 0)
	}
	return st.viewScore(x, y, split)
}

// foldWhole continues viewScore's fold over seg, a run of chain c's nodes
// in c's order, in a merge of c and o that keeps both whole: c's nodes
// move by shift, o's by oShift. An edge inside c adds its cached term
// (gain), bit for bit the edgeGain call it replaces, since both ends move
// alike; only a node with an edge that leaves c (from exit on) looks its
// targets up, to price the edges into o and skip the rest.
func (st *state) foldWhole(total float64, seg []int, c *chain, shift int64, o *chain, oShift int64) float64 {
	for _, nd := range seg {
		gains := st.gain[st.tOff[nd]:st.tOff[nd+1]]
		k := st.exit[nd]
		for _, t := range gains[:k] {
			total += t
		}
		if k == len(gains) {
			continue
		}
		out := st.nodeOut[nd]
		srcEnd := st.off[nd] + shift + st.g.Nodes[nd].Size
		for j := k; j < len(out); j++ {
			e := &st.g.Edges[out[j]]
			switch st.owner[e.Dst] {
			case c.id:
				total += gains[j]
			case o.id:
				total += st.pr.edgeGain(e.Weight, srcEnd, st.off[e.Dst]+oShift)
			}
		}
	}
	return total
}

// refold writes fold, gain and exit for every node of c, in c's current
// order and offsets, and returns the total: c's canonical score on its
// own.
func (st *state) refold(c *chain) float64 {
	var total float64
	for _, nd := range c.nodes {
		srcEnd := st.off[nd] + st.g.Nodes[nd].Size
		out := st.nodeOut[nd]
		gains := st.gain[st.tOff[nd]:st.tOff[nd+1]]
		st.exit[nd] = len(out)
		for j, ei := range out {
			e := &st.g.Edges[ei]
			if st.owner[e.Dst] != c.id {
				st.exit[nd] = min(st.exit[nd], j)
				continue
			}
			t := st.pr.edgeGain(e.Weight, srcEnd, st.off[e.Dst])
			gains[j] = t
			total += t
		}
		st.fold[nd] = total
	}
	return total
}

// mergeCandidate is one way of combining chains x and y.
type mergeCandidate struct {
	gain  float64
	score float64 // viewScore of the merge (becomes the merged chain's cache)
	x, y  int     // chain ids
	xGen  int
	yGen  int
	split int // the merged order is x[:split]·y·x[split:]
}

// crossEdge is an edge between x and y as price sees it: everything
// edgeGain needs except the two shifts a split decides.
type crossEdge struct {
	w      uint64
	srcEnd int64 // end offset of the source inside its own chain
	dst    int64 // start offset of the target inside its own chain
	xi     int   // index inside x of the endpoint that lies in x
	fromX  bool  // x -> y; false is y -> x
}

// priceScratch holds price's buffers, reused across bestMerge calls. It is
// the only thing bestMerge writes, so goroutines that each hold their own
// can score pairs of one state at once while nothing mutates the state.
type priceScratch struct {
	cross  []crossEdge
	diff   []float64
	approx []float64
}

// The candidates of a pair are explored in the order X·Y, Y·X, then the
// splits before x's nodes 1, 2, … (only while x is at most MaxSplitChain
// long); the first of equal gains wins, so the order is part of the
// result. splitOf maps the k-th candidate to its split point.
func splitOf(k, nx int) int {
	if k == 0 {
		return nx
	}
	return k - 1
}

// legalFirsts reports which candidates of (x, y) honor the forced-first
// constraint: those that start with x's first node (all but Y·X), and Y·X.
func (st *state) legalFirsts(x, y *chain) (xFirst, yFirst bool) {
	f := st.opts.ForcedFirst
	if f < 0 || (st.owner[f] != x.id && st.owner[f] != y.id) {
		return true, true
	}
	return x.nodes[0] == f, y.nodes[0] == f
}

// legal reports whether candidate k is one legalFirsts allows.
func legal(k int, xFirst, yFirst bool) bool {
	if k == 1 {
		return yFirst
	}
	return xFirst
}

// price is the filter half of bestMerge. It returns, for each candidate k
// of (x, y) in exploration order (illegal ones are left unpriced), an
// approximation of the candidate's gain, and a bound eps on how far any
// of them is from the canonical gain viewScore(…) - x.score - y.score.
//
// Only the edges a merge can move are visited: y is contiguous in every
// candidate, so edges inside y always cancel against y.score and are
// never read; an edge inside x moves only under a split that separates
// its ends, and then its jump grows by y.size wherever the split is, so
// one difference array over split points prices all of x's internal
// edges for every split at once; the x<->y edges are evaluated per
// candidate.
//
// Approximate and canonical gain are two float64 summations of the same
// edge terms in different orders (the canonical one with the unmoved
// terms added and subtracted again), so they differ by summation error
// only: at most (operations performed) × 2⁻⁵³ × (sum of the magnitudes
// added). With n bounding the operations of either side and the
// magnitudes bounded through the chains' scores and the visited weights,
// that is below n·2⁻⁵³·(2(x.score+y.score) + 7·maxW·Σw); eps is over four
// times that, room for its own rounding (DESIGN.md item 10 has the
// derivation). The returned slice is sc's and is overwritten by the next
// call with sc.
//
// From the x<->y edges price also reports fx, the first index in x of a
// node with an out-edge into y, and fy, the first index in y of one with
// an out-edge into x (len(x.nodes) and len(y.nodes) when there is none):
// where refine's X·Y and Y·X folds must leave the cached fold. When the
// pair has no split candidates, only the x<->y edges matter, and they are
// collected from whichever chain is shorter: the same multiset in another
// order, which ε's argument never relied on.
func (st *state) price(sc *priceScratch, x, y *chain, xFirst, yFirst bool) (approx []float64, eps float64, fx, fy int) {
	nx, ny := len(x.nodes), len(y.nodes)
	fx, fy = nx, ny
	cands := 2
	if nx <= st.opts.maxSplit() {
		cands = nx + 1
	}
	splits := xFirst && cands > 2

	// diff[i], once prefix-summed, is the change of x's internal edges
	// under split i.
	var diff []float64
	if splits {
		if cap(sc.diff) <= nx {
			sc.diff = make([]float64, 2*(nx+1))
		}
		diff = sc.diff[:nx+1]
		clear(diff)
	}
	cross := sc.cross[:0]
	var wsum float64
	if !splits && ny < nx {
		for j, v := range y.nodes {
			vEnd := st.off[v] + st.g.Nodes[v].Size
			for _, ei := range st.nodeOut[v] {
				e := &st.g.Edges[ei]
				if u := e.Dst; st.owner[u] == x.id {
					cross = append(cross, crossEdge{w: e.Weight, srcEnd: vEnd, dst: st.off[u], xi: st.idx[u]})
					wsum += float64(e.Weight)
					fy = min(fy, j)
				}
			}
			for _, ei := range st.nodeIn[v] {
				e := &st.g.Edges[ei]
				if u := e.Src; st.owner[u] == x.id {
					cross = append(cross, crossEdge{w: e.Weight, srcEnd: st.off[u] + st.g.Nodes[u].Size, dst: st.off[v], xi: st.idx[u], fromX: true})
					wsum += float64(e.Weight)
					fx = min(fx, st.idx[u])
				}
			}
		}
	} else {
		for i, u := range x.nodes {
			uEnd := st.off[u] + st.g.Nodes[u].Size
			for j, ei := range st.nodeOut[u] {
				e := &st.g.Edges[ei]
				v := e.Dst
				switch st.owner[v] {
				case y.id:
					cross = append(cross, crossEdge{w: e.Weight, srcEnd: uEnd, dst: st.off[v], xi: i, fromX: true})
					fx = min(fx, i)
				case x.id:
					if !splits {
						continue
					}
					// Splits i' with lo < i' <= hi separate u from v;
					// the unmoved term is cached.
					lo, hi := i, st.idx[v]
					var moved float64
					if lo < hi {
						moved = st.pr.edgeGain(e.Weight, uEnd, st.off[v]+y.size)
					} else {
						lo, hi = hi, lo
						moved = st.pr.edgeGain(e.Weight, uEnd+y.size, st.off[v])
					}
					d := moved - st.gain[st.tOff[u]+j]
					diff[lo+1] += d
					diff[hi+1] -= d
				default:
					continue
				}
				wsum += float64(e.Weight)
			}
			for _, ei := range st.nodeIn[u] {
				e := &st.g.Edges[ei]
				if v := e.Src; st.owner[v] == y.id {
					cross = append(cross, crossEdge{w: e.Weight, srcEnd: st.off[v] + st.g.Nodes[v].Size, dst: st.off[u], xi: i})
					wsum += float64(e.Weight)
					fy = min(fy, st.idx[v])
				}
			}
		}
	}
	if splits {
		for i := 1; i < nx; i++ {
			diff[i] += diff[i-1]
		}
		diff[nx] = 0 // X·Y separates nothing; drop the summation residue
	}

	approx = sc.approx[:0]
	for k := 0; k < cands; k++ {
		var a float64
		if legal(k, xFirst, yFirst) {
			i := splitOf(k, nx)
			s := st.splitOff(x, i)
			if splits {
				a = diff[i]
			}
			for _, c := range cross {
				var shift int64
				if c.xi >= i {
					shift = y.size
				}
				if c.fromX {
					a += st.pr.edgeGain(c.w, c.srcEnd+shift, c.dst+s)
				} else {
					a += st.pr.edgeGain(c.w, c.srcEnd+s, c.dst+shift)
				}
			}
		}
		approx = append(approx, a)
	}
	sc.cross, sc.approx = cross, approx

	n := x.deg + y.deg + 2*nx + 8
	eps = 16 * float64(n) * 0x1p-53 * (x.score + y.score + 2*st.maxW*wsum)
	return approx, eps, fx, fy
}

// bestMerge finds the highest-gain combination of two chains, honoring the
// forced-first constraint; ok is false when no combination is legal and
// profitable. Both retrieval strategies call it with x.id < y.id, so the
// explored candidate set — and therefore the final layout — is identical
// for the naive and heap variants.
//
// It is filter-and-refine. price approximates every candidate's gain to
// within eps of the canonical gain, so with top the best approximation the
// canonical winner is among the candidates priced at top-2·eps or better.
// Only those are scored with viewScore — through refine, which starts X·Y
// and Y·X from the cached fold of the chain they begin with, bit-exactly —
// in exploration order with a strict >, and only canonical numbers leave
// this function: which merge wins, and the gain and score it carries, are
// exactly what scoring every materialised candidate would have produced.
// (The price cannot rule a pair out on its own: X·Y and Y·X only add
// jumps, so top is never negative, and a real gain of 0 can fold to
// either sign.)
func (st *state) bestMerge(sc *priceScratch, x, y *chain) (mergeCandidate, bool) {
	best := mergeCandidate{gain: -1, x: x.id, y: y.id, xGen: x.gen, yGen: y.gen}
	xFirst, yFirst := st.legalFirsts(x, y)
	approx, eps, fx, fy := st.price(sc, x, y, xFirst, yFirst)
	top := math.Inf(-1)
	for k, a := range approx {
		if legal(k, xFirst, yFirst) && a > top {
			top = a
		}
	}
	for k, a := range approx {
		if !legal(k, xFirst, yFirst) || a < top-2*eps {
			continue
		}
		split := splitOf(k, len(x.nodes))
		score := st.refine(x, y, split, fx, fy)
		if gain := score - x.score - y.score; gain > best.gain {
			best.gain, best.score, best.split = gain, score, split
		}
	}
	return best, best.gain > 0
}

// applyMerge folds chain y into chain x at the candidate's split point:
// the one place a merged order is materialised.
func (st *state) applyMerge(c mergeCandidate) {
	x, y := st.chains[c.x], st.chains[c.y]
	nx, ny := len(x.nodes), len(y.nodes)
	addr := st.splitOff(x, c.split)
	x.nodes = append(x.nodes, y.nodes...) // grow by len(y), then open the gap
	copy(x.nodes[c.split+ny:], x.nodes[c.split:nx])
	copy(x.nodes[c.split:], y.nodes)
	for i := c.split; i < nx+ny; i++ {
		nd := x.nodes[i]
		st.owner[nd], st.off[nd], st.idx[nd] = x.id, addr, i
		addr += st.g.Nodes[nd].Size
	}
	st.refold(x) // its total is c.score, the same fold of the same order
	x.size += y.size
	x.count += y.count
	x.deg += y.deg
	x.score = c.score
	x.gen++
	y.dead = true
	y.nodes = nil
	y.gen++
}

// runNaive repeatedly scans all connected chain pairs for the single best
// merge. This is the quadratic baseline the ablation benchmark compares
// against.
func (st *state) runNaive() {
	for {
		var best mergeCandidate
		found := false
		for _, x := range st.chains {
			if x.dead {
				continue
			}
			for _, yid := range st.neighbors(x) {
				if yid <= x.id {
					continue // each unordered pair once
				}
				y := st.chains[yid]
				if y.dead {
					continue
				}
				if c, ok := st.bestMerge(&st.sc, x, y); ok && (!found || c.gain > best.gain) {
					best = c
					found = true
				}
			}
		}
		if !found {
			return
		}
		st.applyMerge(best)
	}
}

// candidateHeap is a binary max-heap of merge candidates with lazy
// invalidation. Ties on gain break toward the lexicographically smallest
// (x, y) pair — exactly the pair the naive scan (ascending x, then
// ascending neighbor) would have committed to — so heap retrieval replays
// the naive merge sequence and the two strategies produce identical
// layouts. It sifts the slice itself: container/heap would box every
// pushed candidate into an interface, one allocation per push.
type candidateHeap []mergeCandidate

func (h candidateHeap) before(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	if h[i].x != h[j].x {
		return h[i].x < h[j].x
	}
	return h[i].y < h[j].y
}

func (h *candidateHeap) push(c mergeCandidate) {
	*h = append(*h, c)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.before(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *candidateHeap) pop() mergeCandidate {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.before(r, child) {
			child = r
		}
		if !s.before(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return top
}

// rescore is bestMerge for chain x and its neighbour nb, with the pair in
// (lower id, higher id) order so the cached candidate is the same one the
// naive rescan evaluates.
func (st *state) rescore(sc *priceScratch, x, nb *chain) (mergeCandidate, bool) {
	if nb.dead {
		return mergeCandidate{}, false
	}
	if nb.id < x.id {
		return st.bestMerge(sc, nb, x)
	}
	return st.bestMerge(sc, x, nb)
}

// runHeap retrieves the most profitable merge from a priority queue,
// re-seeding candidates only for the chains a merge touched.
func (st *state) runHeap() {
	var h candidateHeap
	for _, x := range st.chains {
		if x.dead {
			continue
		}
		// Each unordered pair once, from its lower id.
		nbs := st.neighbors(x)
		st.pushMerges(&h, x, nbs[sort.SearchInts(nbs, x.id):])
	}
	for len(h) > 0 {
		c := h.pop()
		x, y := st.chains[c.x], st.chains[c.y]
		if x.dead || y.dead || x.gen != c.xGen || y.gen != c.yGen {
			continue // stale entry
		}
		st.applyMerge(c)
		st.pushMerges(&h, x, st.neighbors(x))
	}
}

// pushMerges scores x against each of its neighbours nbs and pushes the
// profitable candidates in nbs order. Nothing writes the state between
// one applyMerge and the next, so under a pool a large enough batch is
// shared with its idle helpers (scoreBatch); the heap receives the same
// candidates in the same order either way.
func (st *state) pushMerges(h *candidateHeap, x *chain, nbs []int) {
	if st.pool != nil && st.batchWork(x, nbs) >= st.pool.minWork {
		for _, c := range st.scoreBatch(x, nbs) {
			if c.gain > 0 {
				h.push(c)
			}
		}
		return
	}
	for _, nid := range nbs {
		if c, ok := st.rescore(&st.sc, x, st.chains[nid]); ok {
			h.push(c)
		}
	}
}

// finalOrder sorts surviving chains and concatenates them: the forced-first
// chain leads, then chains by decreasing execution density, matching the
// Ext-TSP paper's chain ordering.
func (st *state) finalOrder() []int {
	var live []*chain
	for _, c := range st.chains {
		if !c.dead {
			live = append(live, c)
		}
	}
	forced := st.opts.ForcedFirst
	density := func(c *chain) float64 {
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
	order := make([]int, 0, len(st.g.Nodes))
	for _, c := range live {
		order = append(order, c.nodes...)
	}
	return order
}
