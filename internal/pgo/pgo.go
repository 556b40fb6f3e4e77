// Package pgo implements instrumented profile-guided optimization, the
// first half of the paper's evaluation baseline (every §5 comparison is
// against "PGO + ThinLTO"). It provides:
//
//   - edge-profile instrumentation of IR modules (two-stage build, §2.2);
//   - count collection from a training run's data image;
//   - profile application onto IR (block counts and branch weights);
//   - profile-guided intra-function block layout (Ext-TSP at compile time);
//   - call-site inlining used by both hot-call inlining and ThinLTO
//     cross-module importing.
package pgo

import (
	"encoding/binary"
	"fmt"
	"sort"

	"propeller/internal/exttsp"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/objfile"
)

// Meta records where one module's instrumentation counters live.
type Meta struct {
	Module string
	Global string // counter array symbol
	// Slot maps function name -> block ID -> counter index.
	Slot     map[string]map[int]int
	NumSlots int
}

// CounterGlobalPrefix names instrumentation counter arrays.
const CounterGlobalPrefix = "__prof_counters."

// Instrument returns an instrumented clone of m: every basic block
// increments its own 8-byte counter through the codegen-reserved scratch
// registers (r12/r13), so program-visible state is untouched.
func Instrument(m *ir.Module) (*ir.Module, *Meta) {
	out := ir.CloneModule(m)
	meta := &Meta{
		Module: m.Name,
		Global: CounterGlobalPrefix + m.Name,
		Slot:   map[string]map[int]int{},
	}
	for _, f := range out.Funcs {
		slots := map[int]int{}
		meta.Slot[f.Name] = slots
		for _, b := range f.Blocks {
			slot := meta.NumSlots
			meta.NumSlots++
			slots[b.ID] = slot
			probe := []ir.Inst{
				{Op: isa.OpMovI64, A: isa.RegScratch, Sym: meta.Global, Imm: int64(slot * 8)},
				{Op: isa.OpLoad, A: isa.RegScratch, B: isa.RegTmp2},
				{Op: isa.OpAddI, A: isa.RegTmp2, Imm: 1},
				{Op: isa.OpStore, A: isa.RegScratch, B: isa.RegTmp2},
			}
			b.Ins = append(probe, b.Ins...)
		}
	}
	out.AddGlobal(&ir.Global{Name: meta.Global, Size: int64(meta.NumSlots * 8)})
	return out, meta
}

// Counts holds collected block execution counts: function -> block -> n.
type Counts map[string]map[int]uint64

// ReadCounts extracts counters from the final data image of a training run
// of the instrumented binary.
func ReadCounts(bin *objfile.Binary, dataImage []byte, metas []*Meta) (Counts, error) {
	if dataImage == nil {
		return nil, fmt.Errorf("pgo: training run kept no memory image")
	}
	counts := Counts{}
	for _, meta := range metas {
		sym, ok := bin.SymbolByName(meta.Global)
		if !ok {
			return nil, fmt.Errorf("pgo: counter global %s missing from binary", meta.Global)
		}
		base := sym.Addr - bin.DataBase
		if base+uint64(meta.NumSlots*8) > uint64(len(dataImage)) {
			return nil, fmt.Errorf("pgo: counters of %s outside data image", meta.Module)
		}
		for fn, slots := range meta.Slot {
			fc := counts[fn]
			if fc == nil {
				fc = map[int]uint64{}
				counts[fn] = fc
			}
			for blockID, slot := range slots {
				fc[blockID] = binary.LittleEndian.Uint64(dataImage[base+uint64(slot*8):])
			}
		}
	}
	return counts, nil
}

// Apply annotates m in place with profile counts: block counts, entry
// counts, and per-edge branch weights approximated from successor counts
// (block-counter instrumentation cannot always attribute edges exactly;
// successor-proportional attribution is the standard fallback).
func Apply(m *ir.Module, counts Counts) {
	for _, f := range m.Funcs {
		fc := counts[f.Name]
		if fc == nil {
			continue
		}
		for _, b := range f.Blocks {
			b.Count = fc[b.ID]
		}
		f.EntryCount = fc[f.Entry().ID]
		for _, b := range f.Blocks {
			n := len(b.Term.Succs)
			if n == 0 {
				continue
			}
			w := make([]uint64, n)
			for i, s := range b.Term.Succs {
				w[i] = fc[s.ID]
			}
			b.Term.SetWeights(w...)
		}
	}
}

// LayoutBlocks reorders every profiled function's blocks with Ext-TSP,
// the compile-time block placement PGO performs. The entry stays first;
// cold blocks sink to the end of the function.
func LayoutBlocks(m *ir.Module) error {
	for _, f := range m.Funcs {
		profiled := false
		for _, b := range f.Blocks {
			if b.Count > 0 {
				profiled = true
				break
			}
		}
		if !profiled || len(f.Blocks) < 3 {
			continue
		}
		index := map[*ir.Block]int{}
		g := &exttsp.Graph{}
		for i, b := range f.Blocks {
			index[b] = i
			g.Nodes = append(g.Nodes, exttsp.Node{Size: blockSize(b), Count: b.Count})
		}
		for _, b := range f.Blocks {
			for i, s := range b.Term.Succs {
				g.Edges = append(g.Edges, exttsp.Edge{
					Src: index[b], Dst: index[s], Weight: b.Term.EdgeWeight(i),
				})
			}
		}
		entryIdx := index[f.Entry()]
		order, err := exttsp.Layout(g, exttsp.Options{ForcedFirst: entryIdx})
		if err != nil {
			return fmt.Errorf("pgo: %s: %w", f.Name, err)
		}
		blocks := make([]*ir.Block, len(order))
		for i, oi := range order {
			blocks[i] = f.Blocks[oi]
		}
		f.Blocks = blocks
		f.Renumber()
	}
	return nil
}

func blockSize(b *ir.Block) int64 {
	var n int64
	for _, in := range b.Ins {
		n += int64(isa.SizeOf(in.Op))
	}
	return n + 5 // terminator estimate
}

// CanInline reports whether callee satisfies the structural conditions for
// safe IR-level inlining in this toolchain: it must be a leaf (no calls),
// free of exception control flow, and must not read its caller's frame
// (our fixtures and generated workloads keep inlinable helpers to the
// argument/scratch register convention).
func CanInline(callee *ir.Func, maxInsts int) bool {
	if callee.NumInsts() > maxInsts {
		return false
	}
	for _, b := range callee.Blocks {
		if b.LandingPad || b.Term.Kind == ir.TermThrow || b.Term.Kind == ir.TermHalt {
			return false
		}
		for _, in := range b.Ins {
			if in.Op == isa.OpCall || in.Op == isa.OpCallR || in.Pad != nil ||
				in.Op == isa.OpPush || in.Op == isa.OpPop {
				return false
			}
		}
	}
	return true
}

// InlineCall splices callee's body into caller, replacing the call at
// caller.Blocks[?]==b, b.Ins[idx]. The continuation (the rest of b plus
// its terminator) moves to a fresh block; every callee return jumps there.
func InlineCall(caller *ir.Func, b *ir.Block, idx int, callee *ir.Func) error {
	if idx >= len(b.Ins) || b.Ins[idx].Op != isa.OpCall {
		return fmt.Errorf("pgo: no call at %s bb%d[%d]", caller.Name, b.ID, idx)
	}
	if b.Ins[idx].Sym != callee.Name {
		return fmt.Errorf("pgo: call targets %s, not %s", b.Ins[idx].Sym, callee.Name)
	}
	// Continuation block.
	cont := caller.NewBlock()
	cont.Ins = append([]ir.Inst(nil), b.Ins[idx+1:]...)
	cont.Term = b.Term
	cont.Count = b.Count

	// Clone callee blocks into the caller.
	cloneOf := map[*ir.Block]*ir.Block{}
	for _, cb := range callee.Blocks {
		nb := caller.NewBlock()
		nb.Ins = append([]ir.Inst(nil), cb.Ins...)
		nb.Count = cb.Count
		cloneOf[cb] = nb
	}
	for _, cb := range callee.Blocks {
		nb := cloneOf[cb]
		switch cb.Term.Kind {
		case ir.TermReturn:
			nb.Jump(cont)
		default:
			nb.Term = ir.Term{
				Kind:  cb.Term.Kind,
				Cond:  cb.Term.Cond,
				Index: cb.Term.Index,
			}
			for _, s := range cb.Term.Succs {
				nb.Term.Succs = append(nb.Term.Succs, cloneOf[s])
			}
			if len(cb.Term.Weights) > 0 {
				nb.Term.Weights = append([]uint64(nil), cb.Term.Weights...)
			}
		}
	}
	// Rewrite the call site.
	b.Ins = b.Ins[:idx]
	b.Jump(cloneOf[callee.Entry()])
	return ir.VerifyFunc(caller)
}

// InlineHotCalls inlines direct calls whose containing block count meets
// minCount and whose callee passes CanInline, resolving callees through
// resolve (which may reach across modules: that is ThinLTO importing).
// It returns the number of call sites inlined.
func InlineHotCalls(m *ir.Module, resolve func(name string) *ir.Func, minCount uint64, maxCalleeInsts int) (int, error) {
	inlined := 0
	for _, f := range m.Funcs {
		// Snapshot: inlining appends cloned blocks we must not revisit.
		blocks := append([]*ir.Block(nil), f.Blocks...)
		for _, b := range blocks {
			if b.Count < minCount {
				continue
			}
			var idxs []int
			for i, in := range b.Ins {
				if in.Op == isa.OpCall && in.Pad == nil {
					idxs = append(idxs, i)
				}
			}
			// Back-to-front so earlier indices stay valid: inlining at
			// index i keeps b.Ins[:i] and moves the tail to a new block.
			sort.Sort(sort.Reverse(sort.IntSlice(idxs)))
			for _, idx := range idxs {
				callee := resolve(b.Ins[idx].Sym)
				if callee == nil || callee.Name == f.Name || !CanInline(callee, maxCalleeInsts) {
					continue
				}
				if err := InlineCall(f, b, idx, callee); err != nil {
					return inlined, err
				}
				inlined++
			}
		}
	}
	return inlined, nil
}
