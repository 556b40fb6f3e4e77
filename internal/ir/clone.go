package ir

// slabs is the backing store a clone carves its slices from.
type slabs struct {
	funcs   []Func
	blocks  []Block
	ptrs    []*Block
	ins     []Inst
	weights []uint64
}

// newSlabs allocates exact-size slabs for deep copies of fs.
func newSlabs(fs []*Func) *slabs {
	var blocks, ptrs, ins, weights int
	for _, f := range fs {
		blocks += len(f.Blocks)
		ptrs += len(f.Blocks)
		for _, b := range f.Blocks {
			ptrs += len(b.Term.Succs)
			ins += len(b.Ins)
			weights += len(b.Term.Weights)
		}
	}
	return &slabs{
		funcs:   make([]Func, len(fs)),
		blocks:  make([]Block, blocks),
		ptrs:    make([]*Block, ptrs),
		ins:     make([]Inst, ins),
		weights: make([]uint64, weights),
	}
}

// carve takes the next n elements of *slab, capacity-clamped; nil when n
// is 0, as an empty slice of a built module is.
func carve[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// cloneFunc copies f into the next function of s. Block IDs and the block
// numbering are preserved; every block reference is remapped into the copy
// through the numbering, which must be current (mustIndex panics naming
// the function otherwise).
func (s *slabs) cloneFunc(f *Func) *Func {
	nf := &s.funcs[0]
	s.funcs = s.funcs[1:]
	*nf = Func{
		Name:        f.Name,
		Module:      f.Module,
		Linkage:     f.Linkage,
		NumParams:   f.NumParams,
		HasEH:       f.HasEH,
		Imported:    f.Imported,
		EntryCount:  f.EntryCount,
		nextBlockID: f.nextBlockID,
	}
	blocks := carve(&s.blocks, len(f.Blocks))
	nf.Blocks = carve(&s.ptrs, len(f.Blocks))
	for i := range blocks {
		nf.Blocks[i] = &blocks[i]
	}
	for i, b := range f.Blocks {
		nb := &blocks[i]
		*nb = Block{ID: b.ID, Fn: nf, LandingPad: b.LandingPad, Count: b.Count, index: int32(i)}
		nb.Ins = carve(&s.ins, len(b.Ins))
		copy(nb.Ins, b.Ins)
		for j := range nb.Ins {
			if pad := nb.Ins[j].Pad; pad != nil {
				nb.Ins[j].Pad = &blocks[f.mustIndex(pad)]
			}
		}
		nb.Term = Term{Kind: b.Term.Kind, Cond: b.Term.Cond, Index: b.Term.Index}
		nb.Term.Succs = carve(&s.ptrs, len(b.Term.Succs))
		for j, succ := range b.Term.Succs {
			nb.Term.Succs[j] = &blocks[f.mustIndex(succ)]
		}
		nb.Term.Weights = carve(&s.weights, len(b.Term.Weights))
		copy(nb.Term.Weights, b.Term.Weights)
	}
	return nf
}

// CloneFunc returns a deep copy of f in slabs of its own, laid out and
// capacity-clamped as CloneModule's are (its comment says why long-lived IR
// is slab-laid); a surviving *Block pins them. Block IDs and the block
// numbering are preserved, so profile mappings and cluster directives remain valid
// against the clone. The clone is what ThinLTO importing and the Phase-4
// rebuild work on, leaving cached IR untouched; it shares no memory with f,
// so a clone never pins the slabs f lives in.
func CloneFunc(f *Func) *Func {
	return newSlabs([]*Func{f}).cloneFunc(f)
}

// CloneModule returns a deep copy of m, sharing no memory with it, laid
// out in five exact-size slabs: one []Func, one []Block, one []*Block
// (every function's Blocks list, then every block's Term.Succs), one []Inst
// and one []uint64 of edge weights. That is a constant number of
// allocations plus a few per global, however many blocks m has.
//
// Every long-lived module is laid out this way, because the collector marks
// every pointer of every resident object on every cycle: built block by
// block, a program costs each cycle a few objects per block for as long as
// it lives. workload.Generate returns every program through CloneModule;
// DecodeModule produces the same shape through its wire.Pools. Every
// carved slice is capacity-clamped, so NewBlock, Emit or an append to a
// terminator's slices on the clone reallocates that slice and never writes
// into its neighbour. One surviving *Block or *Func pins all five slabs:
// code that keeps part of a module keeps a CloneFunc of it.
func CloneModule(m *Module) *Module {
	nm := &Module{Name: m.Name}
	if len(m.Funcs) > 0 {
		s := newSlabs(m.Funcs)
		nm.Funcs = make([]*Func, len(m.Funcs))
		for i, f := range m.Funcs {
			nm.Funcs[i] = s.cloneFunc(f)
		}
	}
	if len(m.Globals) > 0 {
		nm.Globals = make([]*Global, len(m.Globals))
	}
	for i, g := range m.Globals {
		ng := &Global{Name: g.Name, Size: g.Size, ReadOnly: g.ReadOnly, CodeSnapshotOf: g.CodeSnapshotOf}
		ng.Init = append([]byte(nil), g.Init...)
		ng.FuncPtrs = append([]string(nil), g.FuncPtrs...)
		nm.Globals[i] = ng
	}
	return nm
}
