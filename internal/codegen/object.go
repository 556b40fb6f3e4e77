package codegen

import (
	"slices"

	"propeller/internal/objfile"
)

// objBuilder accumulates one object in buffers the compiler reuses from
// module to module — every section's bytes back to back, every name the
// object spells back to back, and section, symbol and relocation records
// that point into them — and then carves the object out of exact slabs.
// Emission therefore allocates nothing per fragment, and the object
// nothing beyond its eight slabs.
type objBuilder struct {
	data   []byte
	names  []byte
	secs   []secRec
	syms   []symRec
	relocs []relocRec
}

// name is a string the object holds: a run of the builder's names, or
// (hi == 0) a string that already exists, such as an IR symbol, which the
// object shares.
type name struct {
	str    string
	lo, hi int32
}

// secRec is a section whose bytes are data[lo:hi] and relocations
// relocs[rlo:rhi]; the embedded Section carries its kind and alignment.
type secRec struct {
	objfile.Section
	name             name
	lo, hi, rlo, rhi int
}

type symRec struct {
	objfile.Symbol
	name name
}

type relocRec struct {
	objfile.Reloc
	sym name
}

// reset empties the builder for the next module, keeping its buffers.
func (b *objBuilder) reset() {
	b.data, b.names = b.data[:0], b.names[:0]
	// The records hold strings of the last module; drop them.
	clear(b.secs)
	clear(b.syms)
	clear(b.relocs)
	b.secs, b.syms, b.relocs = b.secs[:0], b.syms[:0], b.relocs[:0]
}

// spell appends parts to the names and returns them as one name.
func (b *objBuilder) spell(parts ...string) name {
	lo := len(b.names)
	for _, p := range parts {
		b.names = append(b.names, p...)
	}
	return name{lo: int32(lo), hi: int32(len(b.names))}
}

// appendName appends the bytes of n to dst.
func (b *objBuilder) appendName(dst []byte, n name) []byte {
	if n.hi == 0 {
		return append(dst, n.str...)
	}
	return append(dst, b.names[n.lo:n.hi]...)
}

func (n name) len() int {
	if n.hi == 0 {
		return len(n.str)
	}
	return int(n.hi - n.lo)
}

// appendZeros appends n zero bytes to dst.
func appendZeros(dst []byte, n int) []byte {
	l := len(dst)
	dst = slices.Grow(dst, n)[:l+n]
	clear(dst[l:])
	return dst
}

// addSection appends a section holding data[lo:] and relocs[rlo:] —
// everything written since — and returns its index.
func (b *objBuilder) addSection(n name, kind objfile.SectionKind, align int64, lo, rlo int) int {
	b.secs = append(b.secs, secRec{
		Section: objfile.Section{Kind: kind, Align: align},
		name:    n, lo: lo, hi: len(b.data), rlo: rlo, rhi: len(b.relocs),
	})
	return len(b.secs) - 1
}

// addSymbol appends a global symbol.
func (b *objBuilder) addSymbol(n name, kind objfile.SymKind, section int, off, size int64) {
	b.syms = append(b.syms, symRec{
		Symbol: objfile.Symbol{Kind: kind, Section: section, Off: off, Size: size, Global: true},
		name:   n,
	})
}

// reloc appends a relocation against sym.
func (b *objBuilder) reloc(off int64, typ objfile.RelocType, sym name, addend int64, relax bool) {
	b.relocs = append(b.relocs, relocRec{
		Reloc: objfile.Reloc{Off: off, Type: typ, Addend: addend, Relax: relax},
		sym:   sym,
	})
}

// object carves the built object out of exact slabs: the Object, its
// Sections and Symbols and their pointer slices, the section bytes, the
// relocations, and one string every name is a substring of. Each
// section's bytes and relocations are capacity-clamped runs, so an append
// to one reallocates it and never writes into its neighbour.
func (b *objBuilder) object(objName string) *objfile.Object {
	names := string(b.names)
	str := func(n name) string {
		if n.hi == 0 {
			return n.str
		}
		return names[n.lo:n.hi]
	}
	o := &objfile.Object{Name: objName}
	data := make([]byte, len(b.data))
	copy(data, b.data)
	relocs := make([]objfile.Reloc, len(b.relocs))
	for i := range b.relocs {
		relocs[i] = b.relocs[i].Reloc
		relocs[i].Sym = str(b.relocs[i].sym)
	}
	if len(b.secs) > 0 {
		secs := make([]objfile.Section, len(b.secs))
		o.Sections = make([]*objfile.Section, len(b.secs))
		for i := range b.secs {
			r := &b.secs[i]
			s := &secs[i]
			*s = r.Section
			s.Name = str(r.name)
			s.Data = data[r.lo:r.hi:r.hi]
			s.Size = int64(r.hi - r.lo)
			if r.rhi > r.rlo {
				s.Relocs = relocs[r.rlo:r.rhi:r.rhi]
			}
			o.Sections[i] = s
		}
	}
	if len(b.syms) > 0 {
		syms := make([]objfile.Symbol, len(b.syms))
		o.Symbols = make([]*objfile.Symbol, len(b.syms))
		for i := range b.syms {
			syms[i] = b.syms[i].Symbol
			syms[i].Name = str(b.syms[i].name)
			o.Symbols[i] = &syms[i]
		}
	}
	return o
}
