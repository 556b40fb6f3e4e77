package objfile

import "propeller/internal/wire"

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

// DecodeObject parses an object file produced by EncodeObject: sections and
// symbols into one slab each, every relocation list exact (a decoded object
// lives until its link), all bounded by what the remaining input could hold.
func DecodeObject(data []byte) (*Object, error) {
	r := wire.NewReader("objfile", objMagic, data)
	o := &Object{Name: r.Str()}
	secs := wire.Take[Section](r, r.Count(), minSectionBytes)
	if len(secs) > 0 {
		o.Sections = make([]*Section, len(secs))
	}
	for i := range secs {
		s := &secs[i]
		o.Sections[i] = s
		s.Name, s.Kind, s.Size, s.Align, s.Data = r.Str(), SectionKind(r.Byte()), r.I64(), r.I64(), r.Bytes()
		s.Relocs = wire.Take[Reloc](r, r.Count(), minRelocBytes)
		for j := range s.Relocs {
			s.Relocs[j] = Reloc{Off: r.I64(), Type: RelocType(r.Byte()), Sym: r.Str(), Addend: r.I64(), Relax: r.Bool()}
		}
	}
	syms := wire.Take[Symbol](r, r.Count(), minSymbolBytes)
	if len(syms) > 0 {
		o.Symbols = make([]*Symbol, len(syms))
	}
	for i := range syms {
		o.Symbols[i] = &syms[i]
		syms[i] = Symbol{Name: r.Str(), Kind: SymKind(r.Byte()), Section: r.Int(), Off: r.I64(), Size: r.I64(), Global: r.Bool()}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
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
