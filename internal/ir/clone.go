package ir

// CloneFunc returns a deep copy of f. Block IDs and the block numbering are
// preserved, so profile mappings and cluster directives remain valid
// against the clone. The clone is what ThinLTO importing and the Phase-4
// rebuild work on, leaving cached IR untouched; it shares no memory with f,
// so a clone never pins the slab a decoded f lives in.
func CloneFunc(f *Func) *Func {
	nf := &Func{
		Name:        f.Name,
		Module:      f.Module,
		Linkage:     f.Linkage,
		NumParams:   f.NumParams,
		HasEH:       f.HasEH,
		Imported:    f.Imported,
		EntryCount:  f.EntryCount,
		nextBlockID: f.nextBlockID,
	}
	slab := make([]Block, len(f.Blocks))
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i := range slab {
		nf.Blocks[i] = &slab[i]
	}
	for i, b := range f.Blocks {
		nb := nf.Blocks[i]
		*nb = Block{ID: b.ID, Fn: nf, LandingPad: b.LandingPad, Count: b.Count, index: int32(i)}
		nb.Ins = make([]Inst, len(b.Ins))
		copy(nb.Ins, b.Ins)
		for j := range nb.Ins {
			if pad := nb.Ins[j].Pad; pad != nil {
				nb.Ins[j].Pad = nf.Blocks[f.mustIndex(pad)]
			}
		}
		nb.Term = Term{
			Kind:  b.Term.Kind,
			Cond:  b.Term.Cond,
			Index: b.Term.Index,
		}
		if len(b.Term.Succs) > 0 {
			nb.Term.Succs = make([]*Block, len(b.Term.Succs))
			for j, s := range b.Term.Succs {
				nb.Term.Succs[j] = nf.Blocks[f.mustIndex(s)]
			}
		}
		if len(b.Term.Weights) > 0 {
			nb.Term.Weights = append([]uint64(nil), b.Term.Weights...)
		}
	}
	return nf
}

// CloneModule returns a deep copy of m.
func CloneModule(m *Module) *Module {
	nm := &Module{Name: m.Name}
	for _, f := range m.Funcs {
		nm.Funcs = append(nm.Funcs, CloneFunc(f))
	}
	for _, g := range m.Globals {
		ng := &Global{Name: g.Name, Size: g.Size, ReadOnly: g.ReadOnly, CodeSnapshotOf: g.CodeSnapshotOf}
		ng.Init = append([]byte(nil), g.Init...)
		ng.FuncPtrs = append([]string(nil), g.FuncPtrs...)
		nm.Globals = append(nm.Globals, ng)
	}
	return nm
}
