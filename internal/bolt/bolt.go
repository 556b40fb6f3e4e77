// Package bolt implements the evaluation comparator: a disassembly-driven,
// monolithic post-link binary optimizer modeled on (Lightning) BOLT
// [51, 52]. Unlike Propeller it operates on the linked executable alone:
// it discovers functions from the symbol table, reconstructs CFGs by
// recursive-descent disassembly, maps LBR profiles onto them, reorders
// blocks with Ext-TSP, splits cold code, orders functions with hfsort, and
// rewrites the binary by appending a new text segment while leaving the
// original text in place.
//
// The comparator is faithful where the paper's comparison depends on it:
//
//   - it requires a binary built with retained relocations (§5.3's "BM"
//     configuration) to rewrite absolute operands;
//   - disassembly memory scales with the whole binary, not with the hot
//     subset (§5.1);
//   - functions with text-embedded jump tables are skipped as non-simple;
//   - code-integrity digests baked at link time (FIPS-style startup
//     self-checks, §5.8) are silently invalidated by rewriting, which is
//     exactly how warehouse-scale binaries come to crash at startup.
package bolt

import (
	"fmt"
	"sort"

	"propeller/internal/exttsp"
	"propeller/internal/memmodel"
	"propeller/internal/objfile"
	"propeller/internal/profile"
)

// Options configure the optimizer.
type Options struct {
	// Lite processes only functions with profile samples (Lightning
	// BOLT's selective processing); heavyweight mode (-lite=0) rewrites
	// every simple function.
	Lite bool

	// SplitFunctions moves cold blocks of rewritten functions into a
	// shared cold region (-split-functions).
	SplitFunctions bool

	// ReorderFunctions applies hfsort to the rewritten function order
	// (-reorder-functions=hfsort).
	ReorderFunctions bool

	// NoHugePageAlign disables the default 2M alignment of the new text
	// segment (§5.3 notes the alignment inflates small binaries).
	NoHugePageAlign bool
}

// Fast returns the options the paper uses for memory/runtime measurements
// (the Lightning BOLT recommended set).
func Fast() Options {
	return Options{Lite: true, SplitFunctions: true, ReorderFunctions: true}
}

// Heavy returns the -lite=0 configuration used for peak-performance
// measurements (§5, Methodology).
func Heavy() Options {
	return Options{Lite: false, SplitFunctions: true, ReorderFunctions: true}
}

// Stats reports the work done and the modeled costs.
type Stats struct {
	FuncsTotal     int
	FuncsSimple    int
	FuncsNonSimple int
	FuncsMoved     int
	InstsDecoded   int64
	BlocksFound    int64
	JumpTables     int

	// PeakMemory is the modeled max-RSS of the whole run (disassembly
	// dominates; §5.1/§5.2).
	PeakMemory int64

	// SerialCost and ParallelCost split the modeled runtime: function
	// discovery, disassembly bookkeeping and emission serialize, while
	// per-function optimization parallelizes (Lightning BOLT); §5.7.
	SerialCost   float64
	ParallelCost float64
}

// TotalCost returns the modeled single-machine wall time given worker
// parallelism.
func (s *Stats) TotalCost(workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	return s.SerialCost + s.ParallelCost/float64(workers)
}

// Modeled per-unit costs and footprints. Disassembly structures mirror
// BOLT's MCInst-based representation: every decoded instruction lives in
// memory for the whole run.
const (
	memPerInst     = 112
	memPerBlock    = 160
	memPerFunc     = 480
	memPerEdge     = 56
	memBaseline    = 96 << 20
	costPerByte    = 7.7e-7 // serial disassembly sweep
	costPerInst    = 1.2e-7
	costPerBlockOp = 4e-7 // parallel per-function optimization
	costEmitByte   = 3e-8 // serial emit-and-link

	// complexityCap makes disassembly cost superlinear in text size,
	// modeling §1.1's observation that disassembler performance (and
	// reliability) degrades as binaries grow and get more complex. This
	// is what produces the Fig-9 crossover: BOLT wins on workstation-size
	// binaries and loses to relinking at warehouse scale.
	complexityCap = 512 << 10
)

type callArc struct {
	site, from, to uint64
}

type boltCtx struct {
	bin      *objfile.Binary
	prof     *profile.Profile
	opts     Options
	stats    *Stats
	mem      memmodel.Tracker
	callArcs []callArc
	relocAt  map[uint64]objfile.FinalReloc
	agg      map[profile.Edge]uint64 // cached aggregated LBR edges

	movedByEntry map[uint64]*dFunc // old entry address -> moved function
}

// ConvertProfile models the perf2bolt step of Fig. 4: the binary is fully
// disassembled (function-oriented, linear) and the raw LBR profile is
// converted to BOLT's format. It returns the modeled peak memory.
func ConvertProfile(bin *objfile.Binary, prof *profile.Profile) (int64, error) {
	var mem memmodel.Tracker
	mem.Alloc(memBaseline)
	mem.Alloc(int64(len(bin.Text)) + int64(len(bin.Rodata)))
	// Linear sweep of every function's bytes; all decoded instructions
	// stay resident for address->instruction mapping.
	var insts int64
	for _, sym := range bin.FuncSyms() {
		insts += estimateInsts(sym.Size)
	}
	mem.Alloc(insts * memPerInst)
	// Aggregated profile: one record per unique edge plus raw samples
	// buffered during conversion.
	agg := prof.Aggregate()
	mem.Alloc(int64(len(agg)) * memPerEdge)
	mem.Alloc(prof.SizeBytes())
	return mem.Peak(), nil
}

// estimateInsts approximates the instruction count in a byte range (the
// mean WSA instruction is ~4.5 bytes).
func estimateInsts(size int64) int64 { return size * 2 / 9 }

// Optimize rewrites the binary. The returned stats carry the modeled
// memory and runtime; the returned binary either runs correctly or —
// for inputs carrying integrity self-checks — crashes at startup, which
// the caller observes through the simulator exactly as Table 3 reports.
func Optimize(bin *objfile.Binary, prof *profile.Profile, opts Options) (*objfile.Binary, *Stats, error) {
	if !bin.HasRelocInfo {
		return nil, nil, fmt.Errorf("bolt: binary was not built with relocations (BOLT requires a relocation build)")
	}
	ctx := &boltCtx{
		bin:     bin,
		prof:    prof,
		opts:    opts,
		stats:   &Stats{},
		relocAt: make(map[uint64]objfile.FinalReloc, len(bin.Relas)),
	}
	for _, r := range bin.Relas {
		ctx.relocAt[r.Addr] = r
	}
	ctx.mem.Alloc(memBaseline)
	ctx.mem.Alloc(int64(len(bin.Text)) + int64(len(bin.Rodata)) + int64(len(bin.Data)))
	ctx.mem.Alloc(int64(len(bin.Relas)) * 24)

	// 1. Function discovery + disassembly (serial).
	syms := bin.FuncSyms()
	ctx.stats.FuncsTotal = len(syms)
	funcs := make([]*dFunc, 0, len(syms))
	for _, sym := range syms {
		fn := ctx.disassembleFunc(sym)
		funcs = append(funcs, fn)
		if fn.simple {
			ctx.stats.FuncsSimple++
		} else {
			ctx.stats.FuncsNonSimple++
		}
	}
	textBytes := float64(len(bin.Text))
	ctx.stats.SerialCost += textBytes * costPerByte * (1 + textBytes/float64(complexityCap))
	ctx.stats.SerialCost += float64(ctx.stats.InstsDecoded) * costPerInst
	ctx.mem.Alloc(ctx.stats.InstsDecoded * memPerInst)
	ctx.mem.Alloc(ctx.stats.BlocksFound * memPerBlock)
	ctx.mem.Alloc(int64(len(funcs)) * memPerFunc)

	// 2. Profile mapping.
	ctx.mapProfile(funcs)

	// 3. Per-function layout (parallelizable).
	for _, fn := range funcs {
		if !fn.simple {
			continue
		}
		if opts.Lite && fn.samples == 0 {
			continue
		}
		fn.moved = true
		ctx.stats.FuncsMoved++
		ctx.stats.ParallelCost += float64(len(fn.blocks)) * costPerBlockOp
	}

	// 4. Rewrite (serial emit).
	out, err := ctx.rewrite(funcs)
	if err != nil {
		return nil, nil, err
	}
	ctx.stats.SerialCost += float64(len(out.Text)-len(bin.Text)) * costEmitByte
	ctx.stats.PeakMemory = ctx.mem.Peak()
	return out, ctx.stats, nil
}

// mapProfile attributes LBR edges and sample mass to reconstructed blocks.
func (b *boltCtx) mapProfile(funcs []*dFunc) {
	// Function range index.
	starts := make([]uint64, len(funcs))
	for i, fn := range funcs {
		starts[i] = fn.sym.Addr
	}
	find := func(addr uint64) *dFunc {
		lo, hi := 0, len(funcs)
		for lo < hi {
			mid := (lo + hi) / 2
			if starts[mid] <= addr {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == 0 {
			return nil
		}
		fn := funcs[lo-1]
		if addr >= fn.sym.Addr+uint64(fn.sym.Size) {
			return nil
		}
		return fn
	}
	b.agg = b.prof.Aggregate()
	b.mem.Alloc(int64(len(b.agg)) * memPerEdge)
	for e, w := range b.agg {
		toFn := find(e.To)
		if toFn == nil {
			continue
		}
		if blk, ok := toFn.byAddr[e.To]; ok {
			blk.count += w
			toFn.samples += w
		}
	}
	// Consecutive LBR records imply sequential execution between one
	// branch's target and the next branch's source: credit the covered
	// blocks and the traversed fall-through edges. Without this, blocks
	// reached only by fall-through look cold and get split out, and the
	// reorderer only optimizes for taken branches.
	for fr, w := range b.prof.FallRanges() {
		fn := find(fr.Start)
		if fn == nil {
			continue
		}
		var prev *dBlock
		for _, blk := range fn.blocks {
			if blk.start < fr.Start || blk.start > fr.End {
				continue
			}
			blk.count += w
			fn.samples += w
			if prev != nil {
				if fn.fallEdges == nil {
					fn.fallEdges = map[[2]uint64]uint64{}
				}
				fn.fallEdges[[2]uint64{prev.start, blk.start}] += w
			}
			prev = blk
		}
	}
}

// profileEdges extracts intra-function weighted edges for one function:
// taken branches from the LBR plus inferred fall-through traversals.
func (b *boltCtx) profileEdges(fn *dFunc) map[[2]uint64]uint64 {
	out := map[[2]uint64]uint64{}
	lo, hi := fn.sym.Addr, fn.sym.Addr+uint64(fn.sym.Size)
	for e, w := range b.agg {
		if e.From >= lo && e.From < hi && e.To >= lo && e.To < hi {
			if _, ok := fn.byAddr[e.To]; ok {
				// Attribute the source to its containing block.
				if src := blockContaining(fn, e.From); src != nil {
					out[[2]uint64{src.start, e.To}] += w
				}
			}
		}
	}
	for k, w := range fn.fallEdges {
		out[k] += w
	}
	return out
}

func blockContaining(fn *dFunc, addr uint64) *dBlock {
	for _, blk := range fn.blocks {
		if addr >= blk.start && addr < blk.end {
			return blk
		}
	}
	return nil
}

// layoutBlocks orders a function's blocks with Ext-TSP (hot) and returns
// (hot order, cold blocks).
func (b *boltCtx) layoutBlocks(fn *dFunc) (hot []*dBlock, cold []*dBlock) {
	edges := b.profileEdges(fn)
	g := &exttsp.Graph{}
	idx := map[*dBlock]int{}
	for i, blk := range fn.blocks {
		idx[blk] = i
		g.Nodes = append(g.Nodes, exttsp.Node{Size: int64(blk.end - blk.start), Count: blk.count})
	}
	// Static CFG edges with zero weight keep unprofiled blocks attached;
	// profiled edges carry their weights.
	for _, blk := range fn.blocks {
		for _, t := range []uint64{blk.takenTarget, blk.fallTarget} {
			if t == 0 {
				continue
			}
			if dst, ok := fn.byAddr[t]; ok {
				g.Edges = append(g.Edges, exttsp.Edge{Src: idx[blk], Dst: idx[dst], Weight: 1})
			}
		}
		if blk.tableID >= 0 {
			for _, t := range fn.tables[blk.tableID].targets {
				if dst, ok := fn.byAddr[t]; ok {
					g.Edges = append(g.Edges, exttsp.Edge{Src: idx[blk], Dst: idx[dst], Weight: 1})
				}
			}
		}
	}
	keys := make([][2]uint64, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		src, ok1 := fn.byAddr[k[0]]
		dst, ok2 := fn.byAddr[k[1]]
		if ok1 && ok2 {
			g.Edges = append(g.Edges, exttsp.Edge{Src: idx[src], Dst: idx[dst], Weight: edges[k]})
		}
	}
	order, err := exttsp.Layout(g, exttsp.Options{ForcedFirst: 0})
	if err != nil {
		// Fall back to the original order; layout is best-effort.
		order = make([]int, len(fn.blocks))
		for i := range order {
			order[i] = i
		}
	}
	for _, oi := range order {
		blk := fn.blocks[oi]
		if b.opts.SplitFunctions && blk.count == 0 && oi != 0 {
			cold = append(cold, blk)
		} else {
			hot = append(hot, blk)
		}
	}
	return hot, cold
}
