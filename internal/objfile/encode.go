package objfile

import (
	"strings"

	"propeller/internal/wire"
)

// Binary serialization for objects and executables, so CLI tools can pass
// artifacts through files and the build-system cache can store them.

const (
	objMagic = "WOF1"
	binMagic = "WBIN"
)

// EncodeObject serializes an object file.
func EncodeObject(o *Object) []byte {
	return wire.Encode(objMagic, func(w *wire.Writer) { writeObject(w, o) })
}

func writeObject(w *wire.Writer, o *Object) {
	w.Str(o.Name)
	w.Int(len(o.Sections))
	for _, s := range o.Sections {
		w.Str(s.Name)
		w.Byte(byte(s.Kind))
		w.I64(s.Size)
		w.I64(s.Align)
		w.Bytes(s.Data)
		w.Int(len(s.Relocs))
		for _, r := range s.Relocs {
			w.I64(r.Off)
			w.Byte(byte(r.Type))
			w.Str(r.Sym)
			w.I64(r.Addend)
			w.Bool(r.Relax)
		}
	}
	w.Int(len(o.Symbols))
	for _, s := range o.Symbols {
		w.Str(s.Name)
		w.Byte(byte(s.Kind))
		w.Int(s.Section)
		w.I64(s.Off)
		w.I64(s.Size)
		w.Bool(s.Global)
	}
}

// Smallest encodings of one section, relocation and symbol: what
// DecodeObject's pools divide the remaining input by.
const (
	minSectionBytes = 6 // empty name, kind, size, align, empty data, reloc count
	minRelocBytes   = 5 // offset, type, empty symbol, addend, relax flag
	minSymbolBytes  = 6 // empty name, kind, section, offset, size, global flag
)

// DecodeObject parses an object file produced by EncodeObject into eight
// exact slabs per object, whatever its section and relocation counts: the
// Object, its Sections and Symbols and their pointer slices, one []byte
// holding every section's data, one []Reloc holding every relocation list,
// and one string holding every name and relocation symbol, which the
// fields are substrings of. A first read of the input makes every check the
// decode makes, in the same order, and sizes the slabs; the second fills
// them. Nothing aliases the input.
func DecodeObject(data []byte) (*Object, error) {
	sz, err := sizeObject(data)
	if err != nil {
		return nil, err
	}
	o := fillObject(data, sz)
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// objSizes is what one encoded object's slabs hold.
type objSizes struct {
	sections, symbols, relocs int
	data, names               int // bytes of section data, of names and symbols
}

// sizeObject checks an encoded object and returns its slab sizes. Its
// reads are DecodeObject's, so its first error is the one the decode
// reports; the relocation and symbol counts are also checked against what
// the remaining input could hold, as wire.Take would check them.
func sizeObject(data []byte) (objSizes, error) {
	var sz objSizes
	r := wire.NewReader("objfile", objMagic, data)
	sz.names = len(r.View())
	sz.sections = r.Count()
	r.Holds(sz.sections, minSectionBytes)
	for i := 0; i < sz.sections && r.Err() == nil; i++ {
		sz.names += len(r.View())
		r.Byte()
		r.I64()
		r.I64()
		sz.data += len(r.View())
		n := r.Count()
		if !r.Holds(n, minRelocBytes) {
			break
		}
		sz.relocs += n
		for j := 0; j < n; j++ {
			r.I64()
			r.Byte()
			sz.names += len(r.View())
			r.I64()
			r.Bool()
		}
	}
	sz.symbols = r.Count()
	r.Holds(sz.symbols, minSymbolBytes)
	for i := 0; i < sz.symbols && r.Err() == nil; i++ {
		sz.names += len(r.View())
		r.Byte()
		r.Int()
		r.I64()
		r.I64()
		r.Bool()
	}
	return sz, r.Done()
}

// fillObject decodes an object sizeObject accepted into slabs of its sizes.
// Every carved slice is capacity-clamped, so appending to one reallocates
// it and never writes into its neighbour.
func fillObject(data []byte, sz objSizes) *Object {
	r := wire.NewReader("objfile", objMagic, data)
	var names strings.Builder
	names.Grow(sz.names)
	// str copies the next string into names and returns it as a substring
	// of names' one allocation, which never moves: Grow sized it exactly.
	str := func() string {
		start := names.Len()
		names.Write(r.View())
		return names.String()[start:]
	}
	o := &Object{Name: str()}
	r.Count()
	var secs []Section
	if sz.sections > 0 {
		secs, o.Sections = make([]Section, sz.sections), make([]*Section, sz.sections)
	}
	bytes, relocs := make([]byte, sz.data), make([]Reloc, sz.relocs)
	for i := range secs {
		s := &secs[i]
		o.Sections[i] = s
		s.Name, s.Kind, s.Size, s.Align = str(), SectionKind(r.Byte()), r.I64(), r.I64()
		if n := copy(bytes, r.View()); n > 0 {
			s.Data, bytes = bytes[:n:n], bytes[n:]
		}
		if n := r.Count(); n > 0 {
			s.Relocs, relocs = relocs[:n:n], relocs[n:]
		}
		for j := range s.Relocs {
			s.Relocs[j] = Reloc{Off: r.I64(), Type: RelocType(r.Byte()), Sym: str(), Addend: r.I64(), Relax: r.Bool()}
		}
	}
	r.Count()
	if sz.symbols > 0 {
		syms := make([]Symbol, sz.symbols)
		o.Symbols = make([]*Symbol, sz.symbols)
		for i := range syms {
			o.Symbols[i] = &syms[i]
			syms[i] = Symbol{Name: str(), Kind: SymKind(r.Byte()), Section: r.Int(), Off: r.I64(), Size: r.I64(), Global: r.Bool()}
		}
	}
	return o
}

// EncodeBinary serializes an executable.
func EncodeBinary(b *Binary) []byte {
	w := &wire.Writer{Buf: []byte(binMagic)}
	w.U64(b.Entry)
	w.U64(b.TextBase)
	w.Bytes(b.Text)
	w.U64(b.RodataBase)
	w.Bytes(b.Rodata)
	w.U64(b.DataBase)
	w.Bytes(b.Data)
	w.I64(b.BSSSize)
	w.Int(len(b.Sections))
	for _, s := range b.Sections {
		w.Str(s.Name)
		w.Byte(byte(s.Kind))
		w.U64(s.Addr)
		w.I64(s.Size)
	}
	w.Int(len(b.Symbols))
	for _, s := range b.Symbols {
		w.Str(s.Name)
		w.Byte(byte(s.Kind))
		w.U64(s.Addr)
		w.I64(s.Size)
	}
	w.Bytes(b.BBAddrMap)
	w.Bytes(b.EHFrame)
	w.Bytes(b.LSDA)
	w.Bytes(b.Debug)
	w.Int(len(b.Relas))
	for _, r := range b.Relas {
		w.U64(r.Addr)
		w.Byte(byte(r.Type))
		w.Str(r.Sym)
		w.I64(r.Addend)
	}
	w.I64(b.RelaBytes)
	w.Bool(b.HugePages)
	w.I64(b.TextFileBytes)
	w.Bool(b.HasRelocInfo)
	w.Str(b.BuildID)
	return w.Buf
}

// DecodeBinary parses an executable produced by EncodeBinary.
func DecodeBinary(data []byte) (*Binary, error) {
	r := wire.NewReader("objfile", binMagic, data)
	b := &Binary{
		Entry: r.U64(), TextBase: r.U64(), Text: r.Bytes(),
		RodataBase: r.U64(), Rodata: r.Bytes(),
		DataBase: r.U64(), Data: r.Bytes(), BSSSize: r.I64(),
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		b.Sections = append(b.Sections, PlacedSection{
			Name: r.Str(), Kind: SectionKind(r.Byte()), Addr: r.U64(), Size: r.I64(),
		})
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		b.Symbols = append(b.Symbols, FinalSym{
			Name: r.Str(), Kind: SymKind(r.Byte()), Addr: r.U64(), Size: r.I64(),
		})
	}
	b.BBAddrMap = r.Bytes()
	b.EHFrame = r.Bytes()
	b.LSDA = r.Bytes()
	b.Debug = r.Bytes()
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		b.Relas = append(b.Relas, FinalReloc{
			Addr: r.U64(), Type: RelocType(r.Byte()), Sym: r.Str(), Addend: r.I64(),
		})
	}
	b.RelaBytes = r.I64()
	b.HugePages = r.Bool()
	b.TextFileBytes = r.I64()
	b.HasRelocInfo = r.Bool()
	b.BuildID = r.Str()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return b, nil
}
