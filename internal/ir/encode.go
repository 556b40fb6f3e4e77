package ir

import (
	"propeller/internal/isa"
	"propeller/internal/wire"
)

// Binary serialization of IR modules. This is the "optimized IR object"
// artifact of Phase 1 (§3.1): the distributed build system caches these
// bytes keyed by content hash, and a Phase-2 or Phase-4 backend is charged
// for fetching them. The pipeline's backends compile the in-memory module
// instead of decoding the bytes; DecodeModule serves the toolchain CLIs,
// which read IR files.

const irMagic = "WIR1"

// EncodeModule serializes m to a byte slice allocated once, at its exact
// size. It reads the block numbering and never writes it; a block reference
// the numbering cannot place — a pass that forgot Func.Renumber, an edge
// into another function — panics naming the function rather than encode
// the index of some other block.
func EncodeModule(m *Module) []byte {
	return wire.Encode(irMagic, func(w *wire.Writer) { writeModule(w, m) })
}

// EncodedSize returns len(EncodeModule(m)) without allocating it: what the
// build-cost model reads a module's IR size from.
func EncodedSize(m *Module) int {
	return wire.EncodedLen(irMagic, func(w *wire.Writer) { writeModule(w, m) })
}

func writeModule(w *wire.Writer, m *Module) {
	w.Str(m.Name)
	w.Int(len(m.Globals))
	for _, g := range m.Globals {
		w.Str(g.Name)
		w.I64(g.Size)
		w.Bytes(g.Init)
		w.Bool(g.ReadOnly)
		w.Str(g.CodeSnapshotOf)
		w.Int(len(g.FuncPtrs))
		for _, fp := range g.FuncPtrs {
			w.Str(fp)
		}
	}
	w.Int(len(m.Funcs))
	for _, f := range m.Funcs {
		writeFunc(w, f)
	}
}

func writeFunc(w *wire.Writer, f *Func) {
	w.Str(f.Name)
	w.Str(f.Module)
	w.Byte(byte(f.Linkage))
	w.Int(f.NumParams)
	flags := byte(0)
	if f.HasEH {
		flags |= 1
	}
	if f.Imported {
		flags |= 2
	}
	w.Byte(flags)
	w.U64(f.EntryCount)
	w.Int(f.nextBlockID)
	w.Int(len(f.Blocks))
	for _, b := range f.Blocks {
		f.mustIndex(b)
		w.Int(b.ID)
		w.Bool(b.LandingPad)
		w.U64(b.Count)
		w.Int(len(b.Ins))
		for i := range b.Ins {
			in := &b.Ins[i]
			w.Byte(byte(in.Op))
			w.Byte(in.A)
			w.Byte(in.B)
			w.I64(in.Imm)
			w.Str(in.Sym)
			if in.Pad != nil {
				w.Int(f.mustIndex(in.Pad) + 1)
			} else {
				w.Int(0)
			}
		}
		w.Byte(byte(b.Term.Kind))
		w.Byte(byte(b.Term.Cond))
		w.Byte(b.Term.Index)
		w.Int(len(b.Term.Succs))
		for _, s := range b.Term.Succs {
			w.Int(f.mustIndex(s))
		}
		w.Int(len(b.Term.Weights))
		for _, wt := range b.Term.Weights {
			w.U64(wt)
		}
	}
}

// Smallest encodings of one function, block and instruction: what the
// decoder's pools divide the remaining input by.
const (
	minFuncBytes  = 8 // two empty names, linkage, params, flags, entry count, next ID, block count
	minBlockBytes = 9 // ID, pad flag, count, three counts, terminator kind, condition, index register
	minInstBytes  = 6 // op, two registers, immediate, empty symbol, no pad
)

// decoder is the state of one DecodeModule call: the reader, the chunk
// pools the module's block-pointer, instruction and weight slices are
// carved from, and its symbol table.
type decoder struct {
	r       *wire.Reader
	ptrs    wire.Pool[*Block]
	ins     wire.Pool[Inst]
	weights wire.Pool[uint64]
	syms    map[string]string
}

// DecodeModule deserializes a module written by EncodeModule. Corrupt
// input is an error, never a panic, and every allocation is bounded by
// the input's own length (wire.Reader.Count, wire.Pool).
//
// The module is read into slabs, the layout every long-lived module has
// (see CloneModule: the collector marks every pointer of every resident
// object on every cycle): one []Func per module, one []Block per function,
// block-pointer, instruction and weight slices carved from chunks the whole
// module shares (capacity-clamped: Block.Emit on a decoded block
// reallocates), module names and instruction symbols interned. A surviving
// *Block therefore pins its function's slab and the chunks it points into;
// callers that keep part of a decoded module work on a CloneFunc copy.
func DecodeModule(data []byte) (*Module, error) {
	r := wire.NewReader("ir", irMagic, data)
	d := &decoder{
		r:       r,
		ptrs:    wire.Pool[*Block]{Chunk: 128, MinBytes: 1},
		ins:     wire.Pool[Inst]{Chunk: 256, MinBytes: minInstBytes},
		weights: wire.Pool[uint64]{Chunk: 128, MinBytes: 1},
		syms:    map[string]string{},
	}
	m := &Module{Name: d.str()}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		g := &Global{Name: r.Str(), Size: r.I64(), Init: r.Bytes(), ReadOnly: r.Bool(), CodeSnapshotOf: r.Str()}
		g.FuncPtrs = wire.Take[string](r, r.Count(), 1)
		for j := range g.FuncPtrs {
			g.FuncPtrs[j] = r.Str()
		}
		m.Globals = append(m.Globals, g)
	}
	funcs := wire.Take[Func](r, r.Count(), minFuncBytes)
	if len(funcs) > 0 {
		m.Funcs = make([]*Func, len(funcs))
	}
	for i := range funcs {
		m.Funcs[i] = &funcs[i]
		d.readFunc(&funcs[i])
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// str reads a string through the module's symbol table: only the first
// occurrence of a callee or module name allocates.
func (d *decoder) str() string {
	v := d.r.View()
	if len(v) == 0 {
		return ""
	}
	s, ok := d.syms[string(v)]
	if !ok {
		s = string(v)
		d.syms[s] = s
	}
	return s
}

func (d *decoder) readFunc(f *Func) {
	r := d.r
	f.Name = r.Str()
	f.Module = d.str()
	f.Linkage = Linkage(r.Byte())
	f.NumParams = r.Int()
	flags := r.Byte()
	f.HasEH = flags&1 != 0
	f.Imported = flags&2 != 0
	f.EntryCount = r.U64()
	f.nextBlockID = r.Int()
	// Every block exists before any is read: successors and landing pads
	// may point forward.
	slab := wire.Take[Block](r, r.Count(), minBlockBytes)
	f.Blocks = d.ptrs.Take(r, len(slab))
	for i := range slab {
		slab[i].Fn, slab[i].index = f, int32(i)
		f.Blocks[i] = &slab[i]
	}
	block := func(what string, idx uint64) *Block {
		if idx >= uint64(len(slab)) {
			r.Fail("function %s: %s index %d out of range", f.Name, what, idx)
			return nil
		}
		return &slab[idx]
	}
	for i := range slab {
		if r.Err() != nil {
			break
		}
		b := &slab[i]
		b.ID = r.Int()
		b.LandingPad = r.Bool()
		b.Count = r.U64()
		b.Ins = d.ins.Take(r, r.Count())
		for j := range b.Ins {
			in := &b.Ins[j]
			in.Op = isa.Op(r.Byte())
			in.A = r.Byte()
			in.B = r.Byte()
			in.Imm = r.I64()
			in.Sym = d.str()
			if pad := r.U64(); pad != 0 {
				in.Pad = block("landing pad", pad-1)
			}
		}
		b.Term.Kind = TermKind(r.Byte())
		b.Term.Cond = isa.Cond(r.Byte())
		b.Term.Index = r.Byte()
		b.Term.Succs = d.ptrs.Take(r, r.Count())
		for k := range b.Term.Succs {
			b.Term.Succs[k] = block("successor", r.U64())
		}
		nW := r.Count()
		if nW > len(b.Term.Succs) {
			r.Fail("function %s: %d weights for %d successors", f.Name, nW, len(b.Term.Succs))
		}
		b.Term.Weights = d.weights.Take(r, nW)
		for k := range b.Term.Weights {
			b.Term.Weights[k] = r.U64()
		}
	}
}
