// Package wpa is the whole-program analyzer of Phase 3 (§3.3): the
// standalone tool that consumes hardware LBR profiles and the BB address
// map of the metadata binary, reconstructs dynamic control-flow graphs
// (DCFGs) for the sampled functions — without any disassembly — runs the
// Ext-TSP layout algorithm, and emits the two Phase-4 artifacts:
//
//   - cc_prof.txt cluster directives for the distributed backend actions;
//   - ld_prof.txt, the global symbol ordering for the final relink.
package wpa

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/exttsp"
	"propeller/internal/hfsort"
	"propeller/internal/layoutfile"
	"propeller/internal/par"
)

// Config controls the analysis.
type Config struct {
	// InterProc enables the inter-procedural layout of §4.7: one global
	// Ext-TSP run over the whole-program CFG including call edges,
	// producing multiple clusters per function placed independently.
	InterProc bool

	// Policy is the base layout policy: every function without an entry
	// in FuncPolicies is laid out under it. Its ExtTSP params also score
	// the inter-procedural layout, which ignores the other two knobs.
	Policy

	// FuncPolicies assigns individual functions their own layout policy
	// (per-function policy mixing, the axis the automated policy search
	// exploits): a named function's intra-function layout runs under its
	// override while every other function keeps the base Policy. The map
	// is part of the layout-policy cache key (per overridden function, its
	// effective policy keys that function's cached layout, so a re-search
	// reuses every layout whose policy did not change). Intra-function
	// mode only; the inter-procedural layout ignores it.
	FuncPolicies map[string]Policy

	// HotPaths are the reconstructed hot paths PathClone consumes. When
	// nil, Analyze rebuilds them from a source that holds raw samples
	// (Samples, During) and refuses any other (Wire, Prebuilt): the
	// position-independent aggregate cannot recover path strings.
	HotPaths PathSet

	// HotThreshold is the minimum sampled count for a block to join the
	// hot layout (default 1).
	HotThreshold uint64

	// BuildID, when non-empty, is the content hash of the binary whose BB
	// address map the analysis runs against. A profile that records a
	// different build ID is rejected: its addresses belong to another code
	// image and would silently mis-attribute every sample (§3.3's matching
	// of perf data to binaries by build ID).
	BuildID string

	// IgnoreBuildID disables the mismatch rejection (the ignore_build_id
	// knob of propeller_options.proto) for profiles known to be
	// compatible despite the hash difference.
	IgnoreBuildID bool

	// Workers bounds the parallelism of sample aggregation and
	// intra-function layout (§4.7: profile parsing and layout are
	// parallelized so whole-program analysis finishes in minutes at
	// warehouse scale). 0 means GOMAXPROCS; 1 forces the serial path.
	// The result is bit-identical at every worker count: shard counts
	// are commutative uint64 sums and layout results are committed in
	// sorted function-name order.
	Workers int

	// Cache, when non-nil, makes the analysis incremental: each of the
	// three Phase-3 actions — sample aggregation, per-function Ext-TSP
	// layout, and the assembled global layout — stores its result in
	// this content-addressed cache, keyed by (ProfileEpoch,
	// layout-policy params, function content hash). A warm re-analysis
	// after a small edit re-runs Ext-TSP only for functions whose
	// content hash changed, and its artifacts are byte-identical to a
	// cold run. Ignored unless ProfileEpoch is also set.
	Cache *buildsys.Cache

	// ProfileEpoch names the profile generation this analysis consumes.
	// It must change whenever the aggregated profile content changes
	// (e.g. a fleet-epoch fingerprint or a hash of the merged profile):
	// the incremental cache trusts it completely and reuses cached
	// counts and layouts for any unchanged function under the same
	// epoch.
	ProfileEpoch string
}

// Policy is a layout policy: the knobs that act on one function's
// intra-function layout. The zero value is the paper-default Ext-TSP
// policy.
type Policy struct {
	// KeepBlockOrder skips Ext-TSP and keeps the function's blocks in
	// their original map order (entry first) — the hfsort+-style
	// call-chain-first policy, where only the global function order and
	// the hot/cold split move code.
	KeepBlockOrder bool `json:"keepBlockOrder,omitempty"`
	// PathClone clones the blocks of the function's reconstructed hot
	// paths (Config.HotPaths) into synthetic fall-through chains before
	// Ext-TSP, biasing the layout toward keeping each hot path contiguous.
	PathClone bool `json:"pathClone,omitempty"`
	// ExtTSP sets the Ext-TSP proximity-scoring parameters (the
	// weight-sweep axis of the default layout policies); the zero value
	// selects the paper defaults.
	ExtTSP exttsp.Params `json:"params,omitempty"`
}

// funcPolicy resolves the effective layout policy for one function.
func (c Config) funcPolicy(fn string) Policy {
	if fp, ok := c.FuncPolicies[fn]; ok {
		return fp
	}
	return c.Policy
}

// NeedsPaths reports whether any layer of the configuration enables path
// cloning, and therefore needs Config.HotPaths populated.
func (c Config) NeedsPaths() bool {
	if c.PathClone {
		return true
	}
	for _, fp := range c.FuncPolicies {
		if fp.PathClone {
			return true
		}
	}
	return false
}

// cacheEnabled reports whether the incremental-cache path is active.
func (c Config) cacheEnabled() bool {
	return c.Cache != nil && c.ProfileEpoch != ""
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// checkBuildID rejects a profile whose recorded build ID does not match
// the binary under analysis. Empty IDs on either side mean "unknown" and
// are accepted for compatibility with legacy and synthetic profiles.
func (c Config) checkBuildID(profID string) error {
	if c.IgnoreBuildID || c.BuildID == "" || profID == "" || profID == c.BuildID {
		return nil
	}
	return fmt.Errorf("wpa: profile build ID %.12s.. does not match binary %.12s.. (use IgnoreBuildID to override)", profID, c.BuildID)
}

func (c Config) hotThreshold() uint64 {
	if c.HotThreshold == 0 {
		return 1
	}
	return c.HotThreshold
}

// Stats describe the analysis footprint; Fig 4's memory model is derived
// from these.
type Stats struct {
	Samples      int
	Records      int
	BranchEdges  int // resolved intra-function edges
	CallEdges    int // resolved inter-function call edges
	DCFGFuncs    int // functions with at least one sampled block
	DCFGNodes    int
	DCFGEdges    int
	HotFuncs     int
	ProfileBytes int64 // the profile's residency while read: one sample for a Wire source, its size otherwise

	// ModeledBytes is the peak-memory model for this phase: the larger of
	// profile-reading and DCFG residency (§5.1 attributes Propeller's peak
	// to exactly these two).
	ModeledBytes int64

	// Workers is the number of workers the sample-aggregation phase
	// actually used.
	Workers int

	// LayoutWorkers is the unit-level parallelism of the layout phase:
	// the worker-pool size after clamping to the number of independent
	// layout units (LayoutShards). In InterProc mode it is the bound the
	// component partition puts on parallelism, not the cores the layout
	// uses — the global layout is one serial exttsp.Layout run — because
	// the modeled Phase-3 makespan and BENCH_wpa.json's scaling curves are
	// functions of the component partition alone.
	LayoutWorkers int

	// LayoutShards is the number of independent layout units: hot
	// functions in intra-function mode, connected components of the
	// global hot-block graph in InterProc mode, where merges never cross
	// a component but the layout does not split along them. It bounds
	// LayoutWorkers and is identical at every worker count.
	LayoutShards int

	// LayoutShardNodes, in InterProc mode, holds the hot-block count of
	// every component-level shard in descending order — the partition
	// shape the modeled layout-scaling curve (BENCH_wpa.json) is derived
	// from.
	LayoutShardNodes []int

	// LayoutEffort, in InterProc mode, is what the global Ext-TSP run
	// spent retrieving its merges: pairs priced and refined, and merges.
	// It is zero on a global-layout cache hit.
	LayoutEffort exttsp.Effort

	// Per-phase wall-time breakdown (the Table-4 analysis-time axis):
	// AggregateWall covers sample aggregation (sharded when Workers > 1) as
	// the busiest shard's time spent folding — its critical path, and none
	// of the time a shard waited for a feed that decodes, or is still
	// sampling, the next batch; MergeWall the deterministic shard merge
	// (nothing to merge on the serial path), and LayoutWall the Ext-TSP
	// layout step alone — the quantity the §4.7 intra-vs-inter 3-10x
	// comparison is about.
	AggregateWall time.Duration
	MergeWall     time.Duration
	LayoutWall    time.Duration

	// AnalysisSeconds is the total measured analysis wall time
	// (aggregate + merge + layout).
	AnalysisSeconds float64

	// Incremental-cache accounting, populated when Config.Cache is in
	// use: whether the sample aggregate and the assembled global layout
	// were cache hits, the per-function layout hit/miss split, and how
	// many functions actually re-ran Ext-TSP. On the cached intra path
	// RelaidFuncs counts the non-trivial misses; with the cache off it
	// equals the full hot set, and on a global-layout hit it is zero. A
	// global-layout hit in intra mode counts every function the
	// per-function path would have looked up as a hit (FuncLayoutHits is
	// the number of sampled functions, FuncLayoutMisses zero): the reuse
	// is total, not absent.
	AggregateCacheHit bool
	GlobalCacheHit    bool
	FuncLayoutHits    int
	FuncLayoutMisses  int
	RelaidFuncs       int
}

// Result is the analyzer output.
type Result struct {
	Directives layoutfile.Directives
	Order      layoutfile.SymbolOrder
	Stats      Stats
}

// funcInfo aggregates the static shape of one function from the map.
type funcInfo struct {
	name    string
	entryID int
	order   []int   // distinct block ids in map order (original layout)
	sizes   []int64 // parallel to order; a repeated id keeps its last size
	size    int64
	// byID maps a block id to its position in order, and exists only for a
	// function whose map lists ids out of ascending order (a laid-out
	// binary's hot functions); for the rest order is searched directly.
	byID map[int]int32
}

// index returns id's position in order.
func (fi *funcInfo) index(id int) (int, bool) {
	if fi.byID != nil {
		i, ok := fi.byID[id]
		return int(i), ok
	}
	return slices.BinarySearch(fi.order, id)
}

// sizeOf returns the size of block id, 0 when the map has no such block.
func (fi *funcInfo) sizeOf(id int) int64 {
	if i, ok := fi.index(id); ok {
		return fi.sizes[i]
	}
	return 0
}

// add records one block of the map.
func (fi *funcInfo) add(id int, size int64) {
	fi.size += size
	if i, ok := fi.index(id); ok {
		fi.sizes[i] = size
		return
	}
	if n := len(fi.order); fi.byID == nil && n > 0 && id < fi.order[n-1] {
		fi.byID = make(map[int]int32, cap(fi.order))
		for i, have := range fi.order {
			fi.byID[have] = int32(i)
		}
	}
	if fi.byID != nil {
		fi.byID[id] = int32(len(fi.order))
	}
	fi.order = append(fi.order, id)
	fi.sizes = append(fi.sizes, size)
}

type edgeKey struct {
	from, to int
}

// callKey attributes an inter-function call edge to its call-site block.
type callKey struct {
	fn     string
	block  int
	callee string
}

type dcfg struct {
	info   *funcInfo
	counts map[int]uint64
	edges  map[edgeKey]uint64
}

// checkMap rejects the map of a binary built without metadata.
func checkMap(m *bbaddrmap.Map) error {
	if m == nil || len(m.Funcs) == 0 {
		return fmt.Errorf("wpa: empty BB address map (was the binary built with metadata?)")
	}
	return nil
}

// funcInfos derives the functions' static shape from the BB address map:
// every function's name and entry, which a call edge reads of its callee,
// and the block runs and size of those shaped reports true for, which only
// a function with a profile reads.
func funcInfos(m *bbaddrmap.Map, shaped func(fn string) bool) (map[string]*funcInfo, error) {
	if err := checkMap(m); err != nil {
		return nil, err
	}
	// One slab each for the infos, the ids and the sizes: a first pass
	// counts every shaped function's blocks across its fragments (size
	// doubles as the counter), a second carves its runs and fills them.
	infos := make(map[string]*funcInfo, len(m.Funcs))
	slab := make([]funcInfo, 0, len(m.Funcs))
	var want []bool // parallel to slab
	total := 0
	for i := range m.Funcs {
		fe := &m.Funcs[i]
		fi := infos[fe.Name]
		if fi == nil {
			slab = append(slab, funcInfo{name: fe.Name, entryID: -1})
			want = append(want, shaped(fe.Name))
			fi = &slab[len(slab)-1]
			infos[fe.Name] = fi
			if len(fe.Blocks) > 0 {
				// The first fragment listed for a function is the primary
				// one; its first block is the entry.
				fi.entryID = fe.Blocks[0].ID
			}
		}
		fi.size += int64(len(fe.Blocks))
		total += len(fe.Blocks)
	}
	for i := range slab {
		if !want[i] {
			total -= int(slab[i].size)
		}
	}
	ids, sizes := make([]int, total), make([]int64, total)
	for i := range slab {
		fi := &slab[i]
		n := int(fi.size)
		fi.size = 0
		if want[i] {
			fi.order, fi.sizes = ids[:0:n], sizes[:0:n]
			ids, sizes = ids[n:], sizes[n:]
		}
	}
	for i := range m.Funcs {
		fe := &m.Funcs[i]
		if fi := infos[fe.Name]; fi.order != nil { // carved above: shaped
			for _, b := range fe.Blocks {
				fi.add(b.ID, int64(b.Size))
			}
		}
	}
	return infos, nil
}

// layout runs the "global layout" action. With the incremental cache
// active the assembled artifacts are keyed by (epoch, policy, every
// participating function's content hash): a hit replays them without
// touching Ext-TSP at all; a miss runs the layout algorithms — with the
// per-function cache inside layoutIntra — and publishes the result.
func layout(res *Result, graphs map[string]*dcfg, infos map[string]*funcInfo, callEdges map[callKey]uint64, cfg Config) error {
	var gkey string
	if cfg.cacheEnabled() {
		names := sortedFuncNames(graphs)
		hashes := make([]string, 0, len(names))
		for _, fn := range names {
			if fi := infos[fn]; fi != nil {
				hashes = append(hashes, fi.contentHash())
			}
		}
		gkey = globalLayoutCacheKey(cfg.ProfileEpoch, cfg.layoutPolicyKey(), hashes)
		// decodeArtifacts parses the cached cc/ld text into directives and
		// an order of their own, so it reads the bytes in place.
		if data, _, ok := cfg.Cache.ViewCost(gkey); ok {
			if err := decodeArtifacts(data, res); err == nil {
				res.Stats.GlobalCacheHit = true
				if !cfg.InterProc {
					res.Stats.FuncLayoutHits = len(graphs)
				}
				return nil
			}
			// A corrupt entry falls through to a recompute that
			// overwrites it.
		}
	}
	var err error
	if cfg.InterProc {
		err = layoutInterProc(res, graphs, infos, callEdges, cfg)
	} else {
		err = layoutIntra(res, graphs, infos, callEdges, cfg)
	}
	if err != nil {
		return err
	}
	if gkey != "" {
		if data, err := encodeArtifacts(res); err == nil {
			cfg.Cache.Put(gkey, data)
		}
	}
	return nil
}

// layoutAggregate is the layout half of the analysis: it projects the
// aggregate's position-independent counts onto m's BB address map and lays
// out what is hot.
func layoutAggregate(m *bbaddrmap.Map, agg *Aggregate, cfg Config) (*Result, error) {
	// Only the functions the aggregate holds are projected and laid out.
	infos, err := funcInfos(m, func(fn string) bool { return agg.funcs[fn] != nil })
	if err != nil {
		return nil, err
	}
	graphs := agg.project(infos)
	st := Stats{
		Samples:       agg.samples,
		Records:       agg.records,
		BranchEdges:   agg.branchEdges,
		CallEdges:     agg.callEdgeN,
		DCFGFuncs:     len(graphs),
		ProfileBytes:  agg.profileBytes,
		Workers:       agg.workers,
		AggregateWall: agg.aggregateWall,
		MergeWall:     agg.mergeWall,
	}
	for _, g := range graphs {
		st.DCFGNodes += len(g.counts)
		st.DCFGEdges += len(g.edges)
	}
	// Memory model: peak is max(profile residency, DCFG residency); see
	// §5.1.
	dcfgBytes := int64(st.DCFGNodes)*48 + int64(st.DCFGEdges)*40 + int64(st.DCFGFuncs)*96
	st.ModeledBytes = max(st.ProfileBytes, dcfgBytes)

	res := &Result{Directives: layoutfile.Directives{}, Stats: st}
	layoutStart := time.Now()
	if err := layout(res, graphs, infos, agg.calls, cfg); err != nil {
		return nil, err
	}
	res.Stats.LayoutWall = time.Since(layoutStart)
	res.Stats.AnalysisSeconds = (res.Stats.AggregateWall + res.Stats.MergeWall + res.Stats.LayoutWall).Seconds()
	res.Stats.HotFuncs = len(res.Directives)
	return res, nil
}

// hotBlocks returns the block ids participating in the hot layout: sampled
// blocks above threshold, plus the entry unconditionally.
func (g *dcfg) hotBlocks(threshold uint64) []int {
	var ids []int
	for id, c := range g.counts {
		if c >= threshold {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	entry := g.info.entryID
	for _, id := range ids {
		if id == entry {
			return ids
		}
	}
	return append([]int{entry}, ids...)
}

// buildGraph maps selected block ids to an Ext-TSP graph.
func (g *dcfg) buildGraph(ids []int) (*exttsp.Graph, map[int]int) {
	index := make(map[int]int, len(ids))
	eg := &exttsp.Graph{}
	for i, id := range ids {
		index[id] = i
		eg.Nodes = append(eg.Nodes, exttsp.Node{Size: g.info.sizeOf(id), Count: g.counts[id]})
	}
	// Deterministic edge order.
	keys := make([]edgeKey, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].from != keys[b].from {
			return keys[a].from < keys[b].from
		}
		return keys[a].to < keys[b].to
	})
	for _, k := range keys {
		si, ok1 := index[k.from]
		di, ok2 := index[k.to]
		if ok1 && ok2 {
			eg.Edges = append(eg.Edges, exttsp.Edge{Src: si, Dst: di, Weight: g.edges[k]})
		}
	}
	return eg, index
}

// sortedFuncNames yields DCFG function names deterministically.
func sortedFuncNames(graphs map[string]*dcfg) []string {
	names := make([]string, 0, len(graphs))
	for n := range graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// intraOut is one function's layout result, produced by a pool worker and
// committed by the caller in sorted-name order.
type intraOut struct {
	cluster []int
	samples uint64
	skip    bool
	err     error
}

// layoutOneIntra lays out a single function's hot blocks under its
// effective policy (the Config knobs, or the function's FuncPolicies
// override). It only reads the shared DCFG maps, so any number of calls
// may run concurrently.
func layoutOneIntra(g *dcfg, cfg Config) intraOut {
	if g.info == nil || g.info.entryID < 0 {
		return intraOut{skip: true}
	}
	fp := cfg.funcPolicy(g.info.name)
	ids := g.hotBlocks(cfg.hotThreshold())
	if len(ids) == 0 {
		return intraOut{skip: true}
	}
	var samples uint64
	for _, c := range g.counts {
		samples += c
	}
	if fp.KeepBlockOrder {
		return intraOut{cluster: g.keepOrderCluster(ids), samples: samples}
	}
	eg, index := g.buildGraph(ids)
	entryIdx := -1
	for i, id := range ids {
		if id == g.info.entryID {
			entryIdx = i
		}
	}
	var cloneOf []int
	if fp.PathClone {
		cloneOf = clonePaths(eg, index, cfg.HotPaths[g.info.name])
	}
	order, err := exttsp.Layout(eg, exttsp.Options{ForcedFirst: entryIdx, Params: fp.ExtTSP})
	if err != nil {
		return intraOut{err: err}
	}
	cluster := make([]int, 0, len(ids))
	if cloneOf == nil {
		for _, oi := range order {
			cluster = append(cluster, ids[oi])
		}
	} else {
		// Map clone nodes back to their originals and keep each block's
		// first occurrence: the result is a permutation of ids biased
		// toward hot-path contiguity. ForcedFirst pins the original entry
		// node to position 0, so the entry survives dedup in front.
		seen := make(map[int]bool, len(ids))
		for _, oi := range order {
			idx := oi
			if oi >= len(ids) {
				idx = cloneOf[oi-len(ids)]
			}
			id := ids[idx]
			if !seen[id] {
				seen[id] = true
				cluster = append(cluster, id)
			}
		}
	}
	return intraOut{cluster: cluster, samples: samples}
}

// keepOrderCluster emits the hot blocks in their original map order with
// the entry first — the call-chain-first policy's "do not reorder blocks"
// arm.
func (g *dcfg) keepOrderCluster(ids []int) []int {
	hot := make(map[int]bool, len(ids))
	for _, id := range ids {
		hot[id] = true
	}
	cluster := make([]int, 0, len(ids))
	cluster = append(cluster, g.info.entryID)
	for _, id := range g.info.order {
		if hot[id] && id != g.info.entryID {
			cluster = append(cluster, id)
		}
	}
	return cluster
}

// clonePaths appends one clone node per non-head path block, chained by
// fall-through edges weighted with the path's count, so Ext-TSP scores
// the whole path as a single contiguous run. Returns the clone→original
// index map (clone node i is eg.Nodes[nOrig+i]); paths touching blocks
// outside the hot graph are skipped.
func clonePaths(eg *exttsp.Graph, index map[int]int, paths []HotPath) []int {
	var cloneOf []int
	for _, p := range paths {
		if len(p.Blocks) < 2 {
			continue
		}
		ok := true
		for _, b := range p.Blocks {
			if _, in := index[b]; !in {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		prev := index[p.Blocks[0]] // anchor the chain on the original head block
		for _, b := range p.Blocks[1:] {
			orig := index[b]
			ni := len(eg.Nodes)
			eg.Nodes = append(eg.Nodes, exttsp.Node{Size: eg.Nodes[orig].Size, Count: p.Count})
			eg.Edges = append(eg.Edges, exttsp.Edge{Src: prev, Dst: ni, Weight: p.Count})
			cloneOf = append(cloneOf, orig)
			prev = ni
		}
	}
	return cloneOf
}

// layoutIntra produces one hot cluster per function (intra-function
// layout, the configuration evaluated throughout §5) and a global function
// order via call-chain clustering. The per-function Ext-TSP runs are
// embarrassingly parallel and fan out through par.Do; results are
// committed in sorted-name order, so the output — including which
// error surfaces when several functions fail — is independent of the
// worker count.
func layoutIntra(res *Result, graphs map[string]*dcfg, infos map[string]*funcInfo, callEdges map[callKey]uint64, cfg Config) error {
	names := sortedFuncNames(graphs)
	outs := make([]intraOut, len(names))
	// The per-function layout cache: a hit replays the function's cached
	// cluster; only misses — functions whose content hash or epoch
	// changed — join the todo list that actually runs Ext-TSP.
	todo := make([]int, 0, len(names))
	cached := cfg.cacheEnabled()
	if cached {
		for i, fn := range names {
			g := graphs[fn]
			if g.info == nil {
				todo = append(todo, i)
				continue
			}
			// decodeLayoutEntry copies the cluster into a slice of its
			// own, so it reads the cached bytes in place.
			if data, _, ok := cfg.Cache.ViewCost(funcLayoutCacheKey(cfg.ProfileEpoch, cfg.funcPolicyKey(fn), g.info.contentHash())); ok {
				if o, err := decodeLayoutEntry(data); err == nil {
					outs[i] = o
					res.Stats.FuncLayoutHits++
					continue
				}
			}
			todo = append(todo, i)
		}
		res.Stats.FuncLayoutMisses = len(todo)
	} else {
		for i := range names {
			todo = append(todo, i)
		}
	}
	w := max(1, min(cfg.workers(), len(todo)))
	res.Stats.LayoutWorkers = w
	// A function's failure is its outs slot's err, reported by name below.
	_ = par.Do(len(todo), w, func(t int) error {
		i := todo[t]
		outs[i] = layoutOneIntra(graphs[names[i]], cfg)
		return nil
	})
	// Publish the computed entries (errors are never cached) and count
	// the functions whose Ext-TSP actually ran.
	for _, i := range todo {
		o := outs[i]
		if o.err != nil {
			continue
		}
		if !o.skip {
			res.Stats.RelaidFuncs++
		}
		if g := graphs[names[i]]; cached && g.info != nil {
			cfg.Cache.Put(funcLayoutCacheKey(cfg.ProfileEpoch, cfg.funcPolicyKey(names[i]), g.info.contentHash()), encodeLayoutEntry(o))
		}
	}

	type hotFunc struct {
		name    string
		samples uint64
	}
	var hot []hotFunc
	for i, fn := range names {
		o := outs[i]
		if o.err != nil {
			return fmt.Errorf("wpa: %s: %w", fn, o.err)
		}
		if o.skip {
			continue
		}
		res.Directives[fn] = layoutfile.ClusterSpec{Clusters: [][]int{o.cluster}}
		hot = append(hot, hotFunc{name: fn, samples: o.samples})
	}
	res.Stats.LayoutShards = len(hot)

	// Global function order: C3 over the hot functions.
	idx := make(map[string]int, len(hot))
	funcs := make([]hfsort.Func, len(hot))
	for i, h := range hot {
		idx[h.name] = i
		funcs[i] = hfsort.Func{Name: h.name, Size: infos[h.name].size, Samples: h.samples}
	}
	// Aggregate call-site edges to function granularity for hfsort.
	agg := map[[2]string]uint64{}
	for k, w := range callEdges {
		agg[[2]string{k.fn, k.callee}] += w
	}
	var calls []hfsort.Call
	callKeys := make([][2]string, 0, len(agg))
	for k := range agg {
		callKeys = append(callKeys, k)
	}
	sort.Slice(callKeys, func(a, b int) bool {
		if callKeys[a][0] != callKeys[b][0] {
			return callKeys[a][0] < callKeys[b][0]
		}
		return callKeys[a][1] < callKeys[b][1]
	})
	for _, k := range callKeys {
		ci, ok1 := idx[k[0]]
		ce, ok2 := idx[k[1]]
		if ok1 && ok2 {
			calls = append(calls, hfsort.Call{Caller: ci, Callee: ce, Weight: agg[k]})
		}
	}
	order := hfsort.Order(funcs, calls, hfsort.DefaultMaxClusterSize)
	ordered := make([]string, len(order))
	for i, fi := range order {
		ordered[i] = funcs[fi].Name
		res.Order.Symbols = append(res.Order.Symbols, funcs[fi].Name)
	}
	// Cold split parts are grouped after all hot code.
	appendColdSymbols(res, ordered, infos)
	return nil
}

// appendColdSymbols emits the fn.cold section symbols, in the given
// function order, for every directive that leaves blocks out of the hot
// clusters. A name without a directive (or with no clusters) is skipped:
// the global function order may legitimately mention functions the layout
// produced nothing for, and indexing Clusters[0] unguarded would panic.
func appendColdSymbols(res *Result, names []string, infos map[string]*funcInfo) {
	for _, fn := range names {
		spec, ok := res.Directives[fn]
		if !ok || len(spec.Clusters) == 0 {
			continue
		}
		listed := 0
		for _, c := range spec.Clusters {
			listed += len(c)
		}
		if fi := infos[fn]; fi != nil && listed < len(fi.order) {
			res.Order.Symbols = append(res.Order.Symbols, fn+".cold")
		}
	}
}

// layoutInterProc runs one global Ext-TSP over all hot blocks with call
// edges included (§4.7), then slices the global chain into per-function
// cluster sections and a symbol order matching the chain.
//
// The global run is the paper's 3-10x analysis-cost arm: one serial
// exttsp.Layout over the whole graph, whose merge retrieval prices a pair
// only when a bound says it could still win. The hot graph of a
// warehouse-scale binary is one giant component plus crumbs, so splitting
// by component would leave all but one worker idle, and the result is
// bit-identical at every worker count.
func layoutInterProc(res *Result, graphs map[string]*dcfg, infos map[string]*funcInfo, callEdges map[callKey]uint64, cfg Config) error {
	names := sortedFuncNames(graphs)
	type globalNode struct {
		fn string
		id int
	}
	var nodes []globalNode
	index := map[globalNode]int{}
	eg := &exttsp.Graph{}
	for _, fn := range names {
		g := graphs[fn]
		if g.info == nil || g.info.entryID < 0 {
			continue
		}
		res.Stats.RelaidFuncs++
		for _, id := range g.hotBlocks(cfg.hotThreshold()) {
			n := globalNode{fn, id}
			index[n] = len(nodes)
			nodes = append(nodes, n)
			eg.Nodes = append(eg.Nodes, exttsp.Node{Size: g.info.sizeOf(id), Count: g.counts[id]})
		}
	}
	for _, fn := range names {
		g := graphs[fn]
		keys := make([]edgeKey, 0, len(g.edges))
		for k := range g.edges {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].from != keys[b].from {
				return keys[a].from < keys[b].from
			}
			return keys[a].to < keys[b].to
		})
		for _, k := range keys {
			si, ok1 := index[globalNode{fn, k.from}]
			di, ok2 := index[globalNode{fn, k.to}]
			if ok1 && ok2 {
				eg.Edges = append(eg.Edges, exttsp.Edge{Src: si, Dst: di, Weight: g.edges[k]})
			}
		}
	}
	callKeys := make([]callKey, 0, len(callEdges))
	for k := range callEdges {
		callKeys = append(callKeys, k)
	}
	sort.Slice(callKeys, func(a, b int) bool {
		ka, kb := callKeys[a], callKeys[b]
		if ka.fn != kb.fn {
			return ka.fn < kb.fn
		}
		if ka.block != kb.block {
			return ka.block < kb.block
		}
		return ka.callee < kb.callee
	})
	for _, k := range callKeys {
		calleeInfo := infos[k.callee]
		if calleeInfo == nil {
			continue
		}
		di, ok := index[globalNode{k.callee, calleeInfo.entryID}]
		if !ok {
			continue
		}
		// The call edge attaches to its call-site block; this is what
		// lets the global layout split a multi-modal caller between its
		// call sites (Fig. 3).
		if si, ok := index[globalNode{k.fn, k.block}]; ok {
			eg.Edges = append(eg.Edges, exttsp.Edge{Src: si, Dst: di, Weight: callEdges[k]})
		}
	}

	// The component partition is worker-independent, so the shard-shape
	// stats (and therefore the modeled scaling curve) are identical at
	// every worker count. LayoutWorkers is clamped to it; the layout
	// itself is one merge state over every component.
	comps := exttsp.Components(eg)
	res.Stats.LayoutShards = len(comps)
	res.Stats.LayoutShardNodes = make([]int, len(comps))
	for i, c := range comps {
		res.Stats.LayoutShardNodes[i] = len(c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(res.Stats.LayoutShardNodes)))
	res.Stats.LayoutWorkers = max(1, min(cfg.workers(), len(comps)))

	eopts := exttsp.Options{ForcedFirst: -1, Params: cfg.ExtTSP, Effort: &res.Stats.LayoutEffort}
	order, err := exttsp.Layout(eg, eopts)
	if err != nil {
		return fmt.Errorf("wpa: global layout: %w", err)
	}

	// Slice the global chain into per-function runs, splitting any run so
	// that the run containing a function's entry starts with it (codegen
	// requires the primary cluster to begin with the entry block).
	type run struct {
		fn  string
		ids []int
	}
	var runs []run
	for _, oi := range order {
		n := nodes[oi]
		isEntry := infos[n.fn] != nil && n.id == infos[n.fn].entryID
		if len(runs) > 0 && runs[len(runs)-1].fn == n.fn && !isEntry {
			runs[len(runs)-1].ids = append(runs[len(runs)-1].ids, n.id)
		} else {
			runs = append(runs, run{fn: n.fn, ids: []int{n.id}})
		}
	}
	// Build directives: the entry run becomes cluster 0; the rest keep
	// global order. Symbols follow the global run order.
	clustersOf := map[string][][]int{}
	entryRunOf := map[string]int{}
	for _, r := range runs {
		fi := infos[r.fn]
		if fi != nil && r.ids[0] == fi.entryID {
			entryRunOf[r.fn] = len(clustersOf[r.fn])
		}
		clustersOf[r.fn] = append(clustersOf[r.fn], r.ids)
	}
	// Reorder each function's clusters so the entry run is first, and
	// compute each run's final symbol name.
	symbolOfRun := map[string]map[int]string{}
	for fn, clusters := range clustersOf {
		er, ok := entryRunOf[fn]
		if !ok {
			return fmt.Errorf("wpa: %s: global layout lost the entry block", fn)
		}
		perm := []int{er}
		for i := range clusters {
			if i != er {
				perm = append(perm, i)
			}
		}
		reordered := make([][]int, len(clusters))
		symbolOfRun[fn] = map[int]string{}
		for newIdx, oldIdx := range perm {
			reordered[newIdx] = clusters[oldIdx]
			if newIdx == 0 {
				symbolOfRun[fn][oldIdx] = fn
			} else {
				symbolOfRun[fn][oldIdx] = fmt.Sprintf("%s.%d", fn, newIdx)
			}
		}
		res.Directives[fn] = layoutfile.ClusterSpec{Clusters: reordered}
	}
	// Emit ld_prof symbols in global run order.
	runCounter := map[string]int{}
	for _, r := range runs {
		i := runCounter[r.fn]
		runCounter[r.fn] = i + 1
		res.Order.Symbols = append(res.Order.Symbols, symbolOfRun[r.fn][i])
	}
	// Cold parts last.
	appendColdSymbols(res, sortedFuncNames(graphs), infos)
	return nil
}
