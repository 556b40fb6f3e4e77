package ir

import (
	"propeller/internal/isa"
	"propeller/internal/wire"
)

// The codec as it was before the IR had a block numbering, kept verbatim
// as the oracle of TestDecodeModuleMatchesReference and
// TestEncodeModuleMatchesReference: the encoder finds successor and
// landing-pad positions through a per-function map[*Block]int, the decoder
// allocates one Block, one instruction slice and one or two successor and
// weight slices per block and a string per instruction symbol.

// refEncodeModule serializes m to a byte slice.
func refEncodeModule(m *Module) []byte {
	w := &wire.Writer{Buf: []byte(irMagic)}
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
		refWriteFunc(w, f)
	}
	return w.Buf
}

func refWriteFunc(w *wire.Writer, f *Func) {
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
	index := blockIndex(f)
	for _, b := range f.Blocks {
		w.Int(b.ID)
		w.Bool(b.LandingPad)
		w.U64(b.Count)
		w.Int(len(b.Ins))
		for _, in := range b.Ins {
			w.Byte(byte(in.Op))
			w.Byte(in.A)
			w.Byte(in.B)
			w.I64(in.Imm)
			w.Str(in.Sym)
			if in.Pad != nil {
				w.Int(index[in.Pad] + 1)
			} else {
				w.Int(0)
			}
		}
		w.Byte(byte(b.Term.Kind))
		w.Byte(byte(b.Term.Cond))
		w.Byte(b.Term.Index)
		w.Int(len(b.Term.Succs))
		for _, s := range b.Term.Succs {
			w.Int(index[s])
		}
		w.Int(len(b.Term.Weights))
		for _, wt := range b.Term.Weights {
			w.U64(wt)
		}
	}
}

func blockIndex(f *Func) map[*Block]int {
	idx := make(map[*Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b] = i
	}
	return idx
}

// refDecodeModule deserializes a module written by refEncodeModule. Corrupt
// input is an error, never a panic, and every allocation is bounded by
// the input's own length (wire.Reader.Count).
func refDecodeModule(data []byte) (*Module, error) {
	r := wire.NewReader("ir", irMagic, data)
	m := &Module{Name: r.Str()}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		g := &Global{Name: r.Str(), Size: r.I64(), Init: r.Bytes(), ReadOnly: r.Bool(), CodeSnapshotOf: r.Str()}
		for j, nPtrs := 0, r.Count(); j < nPtrs && r.Err() == nil; j++ {
			g.FuncPtrs = append(g.FuncPtrs, r.Str())
		}
		m.Globals = append(m.Globals, g)
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		m.Funcs = append(m.Funcs, refReadFunc(r))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

func refReadFunc(r *wire.Reader) *Func {
	f := &Func{
		Name:      r.Str(),
		Module:    r.Str(),
		Linkage:   Linkage(r.Byte()),
		NumParams: r.Int(),
	}
	flags := r.Byte()
	f.HasEH = flags&1 != 0
	f.Imported = flags&2 != 0
	f.EntryCount = r.U64()
	f.nextBlockID = r.Int()
	// Every block exists before any is read: successors and landing pads
	// may point forward.
	f.Blocks = make([]*Block, r.Count())
	for i := range f.Blocks {
		f.Blocks[i] = &Block{Fn: f}
	}
	block := func(what string, idx uint64) *Block {
		if idx >= uint64(len(f.Blocks)) {
			r.Fail("function %s: %s index %d out of range", f.Name, what, idx)
			return nil
		}
		return f.Blocks[idx]
	}
	for _, b := range f.Blocks {
		if r.Err() != nil {
			break
		}
		b.ID = r.Int()
		b.LandingPad = r.Bool()
		b.Count = r.U64()
		b.Ins = make([]Inst, r.Count())
		for j := range b.Ins {
			in := &b.Ins[j]
			in.Op = isa.Op(r.Byte())
			in.A = r.Byte()
			in.B = r.Byte()
			in.Imm = r.I64()
			in.Sym = r.Str()
			if pad := r.U64(); pad != 0 {
				in.Pad = block("landing pad", pad-1)
			}
		}
		b.Term.Kind = TermKind(r.Byte())
		b.Term.Cond = isa.Cond(r.Byte())
		b.Term.Index = r.Byte()
		nSuccs := r.Count()
		for k := 0; k < nSuccs && r.Err() == nil; k++ {
			b.Term.Succs = append(b.Term.Succs, block("successor", r.U64()))
		}
		nW := r.Count()
		if nW > nSuccs {
			r.Fail("function %s: %d weights for %d successors", f.Name, nW, nSuccs)
		}
		for k := 0; k < nW && r.Err() == nil; k++ {
			b.Term.Weights = append(b.Term.Weights, r.U64())
		}
	}
	return f
}
