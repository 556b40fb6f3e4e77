package objfile

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"propeller/internal/wire"
)

func sampleObject() *Object {
	o := &Object{Name: "mod1"}
	text := &Section{
		Name: ".text.foo", Kind: SecText, Align: 16,
		Data: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Relocs: []Reloc{
			{Off: 0, Type: RelPC32, Sym: "bar", Addend: 0},
			{Off: 3, Type: RelAbs64, Sym: "gvar", Addend: 8},
		},
	}
	o.AddSection(text)
	ro := &Section{Name: ".rodata.mod1", Kind: SecRodata, Align: 8, Data: make([]byte, 32)}
	o.AddSection(ro)
	o.AddSection(&Section{Name: ".llvm_bb_addr_map.foo", Kind: SecBBAddrMap, Data: []byte{9, 9}})
	o.AddSymbol(&Symbol{Name: "foo", Kind: SymFunc, Section: 0, Off: 0, Size: 8, Global: true})
	o.AddSymbol(&Symbol{Name: "gvar", Kind: SymObject, Section: 1, Off: 0, Size: 32, Global: true})
	return o
}

func TestObjectValidate(t *testing.T) {
	if err := sampleObject().Validate(); err != nil {
		t.Fatalf("sample object should validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Object)
		want   string
	}{
		{"bad align", func(o *Object) { o.Sections[0].Align = 3 }, "alignment"},
		{"size mismatch", func(o *Object) { o.Sections[0].Size = 99 }, "size"},
		{"reloc out of range", func(o *Object) { o.Sections[0].Relocs[0].Off = 100 }, "reloc offset"},
		{"reloc empty sym", func(o *Object) { o.Sections[0].Relocs[0].Sym = "" }, "empty symbol"},
		{"symbol bad section", func(o *Object) { o.Symbols[0].Section = 9 }, "section index"},
		{"symbol bad offset", func(o *Object) { o.Symbols[0].Off = 1000 }, "outside section"},
		{"duplicate symbol", func(o *Object) { o.Symbols[1].Name = "foo" }, "duplicate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := sampleObject()
			c.mutate(o)
			err := o.Validate()
			if err == nil {
				t.Fatal("Validate accepted corrupted object")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestObjectLookups(t *testing.T) {
	o := sampleObject()
	if o.Section(".text.foo") == nil || o.Section(".nope") != nil {
		t.Error("Section lookup wrong")
	}
	if o.Symbol("foo") == nil || o.Symbol("nope") != nil {
		t.Error("Symbol lookup wrong")
	}
}

func TestObjectStats(t *testing.T) {
	o := sampleObject()
	st := o.Stats()
	if st.Text != 8 {
		t.Errorf("Text = %d, want 8", st.Text)
	}
	if st.BBAddrMap != 2 {
		t.Errorf("BBAddrMap = %d, want 2", st.BBAddrMap)
	}
	if st.Relocs != 48 {
		t.Errorf("Relocs = %d, want 48", st.Relocs)
	}
	if st.Total() != st.Text+st.EHFrame+st.BBAddrMap+st.Relocs+st.Other {
		t.Error("Total mismatch")
	}
}

func TestObjectEncodeDecodeRoundTrip(t *testing.T) {
	o := sampleObject()
	got, err := DecodeObject(EncodeObject(o))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", o, got)
	}
}

func TestObjectDecodeTruncation(t *testing.T) {
	data := EncodeObject(sampleObject())
	for cut := 0; cut < len(data); cut += 3 {
		if _, err := DecodeObject(data[:cut]); err == nil {
			t.Fatalf("decoded truncation at %d", cut)
		}
	}
}

func TestObjectDecodeRejectsTrailing(t *testing.T) {
	data := append(EncodeObject(sampleObject()), 0x00)
	if _, err := DecodeObject(data); err == nil {
		t.Error("decoded object with a trailing byte: a cached object with garbage appended would pass")
	}
}

func sampleBinary() *Binary {
	return &Binary{
		Entry:      0x200010,
		TextBase:   0x200000,
		Text:       []byte{1, 2, 3, 4},
		RodataBase: 0x300000,
		Rodata:     []byte{5, 6},
		DataBase:   0x400000,
		Data:       []byte{7},
		BSSSize:    128,
		Sections: []PlacedSection{
			{Name: ".text.main", Kind: SecText, Addr: 0x200000, Size: 4},
		},
		Symbols: []FinalSym{
			{Name: "main", Kind: SymFunc, Addr: 0x200000, Size: 4},
			{Name: "main.cold", Kind: SymFuncPart, Addr: 0x200002, Size: 2},
			{Name: "gv", Kind: SymObject, Addr: 0x400000, Size: 1},
		},
		BBAddrMap: []byte{1},
		EHFrame:   []byte{2, 3},
		LSDA:      []byte{4},
		RelaBytes: 240,
		HugePages: true,
	}
}

func TestBinaryEncodeDecodeRoundTrip(t *testing.T) {
	b := sampleBinary()
	got, err := DecodeBinary(EncodeBinary(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", b, got)
	}
}

func TestBinaryDecodeRejectsTrailing(t *testing.T) {
	for _, b := range []byte{0xAB, 0x00} {
		if _, err := DecodeBinary(append(EncodeBinary(sampleBinary()), b)); err == nil {
			t.Errorf("decoded binary with trailing byte %#x", b)
		}
	}
}

func TestBinarySymbolLookup(t *testing.T) {
	b := sampleBinary()
	s, ok := b.SymbolByName("main")
	if !ok || s.Addr != 0x200000 {
		t.Error("SymbolByName failed")
	}
	if _, ok := b.SymbolByName("ghost"); ok {
		t.Error("found nonexistent symbol")
	}
	// SymbolAt prefers the function symbol when ranges overlap.
	s, ok = b.SymbolAt(0x200003)
	if !ok || s.Name != "main" {
		t.Errorf("SymbolAt(0x200003) = %v, want main", s.Name)
	}
	if _, ok := b.SymbolAt(0x999999); ok {
		t.Error("SymbolAt matched unmapped address")
	}
}

func TestBinaryFuncSymsSorted(t *testing.T) {
	b := sampleBinary()
	fs := b.FuncSyms()
	if len(fs) != 2 {
		t.Fatalf("got %d func syms, want 2", len(fs))
	}
	for i := 1; i < len(fs); i++ {
		if fs[i-1].Addr > fs[i].Addr {
			t.Error("FuncSyms not sorted")
		}
	}
}

func TestBinaryReadText(t *testing.T) {
	b := sampleBinary()
	got, err := b.ReadText(0x200001, 2)
	if err != nil || got[0] != 2 || got[1] != 3 {
		t.Errorf("ReadText = %v, %v", got, err)
	}
	if _, err := b.ReadText(0x200003, 2); err == nil {
		t.Error("ReadText past end succeeded")
	}
	if _, err := b.ReadText(0x1FFFFF, 1); err == nil {
		t.Error("ReadText before base succeeded")
	}
}

func TestBinaryStrip(t *testing.T) {
	b := sampleBinary()
	b.Strip()
	if b.BBAddrMap != nil || b.RelaBytes != 0 {
		t.Error("Strip left metadata behind")
	}
	if len(b.Text) != 4 {
		t.Error("Strip damaged text")
	}
}

func TestBinaryClone(t *testing.T) {
	b := sampleBinary()
	c := b.Clone()
	c.Text[0] = 99
	c.Symbols[0].Name = "mutated"
	if b.Text[0] == 99 || b.Symbols[0].Name == "mutated" {
		t.Error("Clone shares storage with original")
	}
}

func TestSectionKindLoaded(t *testing.T) {
	loaded := []SectionKind{SecText, SecRodata, SecData, SecBSS}
	unloaded := []SectionKind{SecBBAddrMap, SecEHFrame, SecLSDA}
	for _, k := range loaded {
		if !k.Loaded() {
			t.Errorf("%v should be loaded", k)
		}
	}
	for _, k := range unloaded {
		if k.Loaded() {
			t.Errorf("%v should not be loaded", k)
		}
	}
}

// Property-style test: random objects survive an encode/decode round trip.
func TestObjectRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		o := &Object{Name: "m"}
		nSec := 1 + rng.Intn(6)
		for i := 0; i < nSec; i++ {
			data := make([]byte, 1+rng.Intn(64))
			rng.Read(data)
			kinds := []SectionKind{SecText, SecRodata, SecData, SecBBAddrMap, SecEHFrame, SecLSDA}
			s := &Section{
				Name:  ".s" + string(rune('a'+i)),
				Kind:  kinds[rng.Intn(len(kinds))],
				Align: int64(1 << rng.Intn(5)),
				Data:  data,
			}
			nRel := rng.Intn(4)
			for j := 0; j < nRel; j++ {
				s.Relocs = append(s.Relocs, Reloc{
					Off:    int64(rng.Intn(len(data))),
					Type:   RelocType(rng.Intn(3)),
					Sym:    "sym",
					Addend: int64(rng.Intn(100)) - 50,
				})
			}
			o.AddSection(s)
		}
		o.AddSymbol(&Symbol{Name: "only", Kind: SymFunc, Section: 0, Off: 0, Size: 1, Global: true})
		got, err := DecodeObject(EncodeObject(o))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(o, got) {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
}

// allocatedBy returns the heap bytes fn allocated (garbage included).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileCounts is an object "o" that declares sections sections, whose
// first section declares relocs relocations, and which then declares syms
// symbols and ends in pad zero bytes: with pad at least a count, the count
// passes Reader.Count and only the pools' what-could-the-input-hold check
// stands between it and an allocation several times the input.
func hostileCounts(sections, relocs, syms uint64, pad int) []byte {
	w := &wire.Writer{Buf: []byte(objMagic)}
	w.Str("o")
	w.U64(sections)
	w.Str(".text.f")
	w.Byte(byte(SecText))
	w.I64(4)
	w.I64(1)
	w.Bytes([]byte{0, 0, 0, 0})
	w.U64(relocs)
	w.U64(syms)
	return append(w.Buf, make([]byte, pad)...)
}

// FuzzDecodeObject: objects reach DecodeObject from the object cache and
// from files handed to wsc-ld and wsc-objdump. It must never panic,
// whatever it accepts (Validate included) must re-encode to a fixed point,
// and one decode — accepted or not, hostile counts in any position —
// allocates at most 32 bytes per input byte plus a constant (the costliest
// byte is an empty section: 88 bytes of Section and its pointer per 6).
func FuzzDecodeObject(f *testing.F) {
	f.Add(EncodeObject(sampleObject()))
	f.Add([]byte(objMagic))
	f.Add(binary.AppendUvarint([]byte(objMagic+"\x00"), 1<<63)) // section count 2^63
	f.Add(append(EncodeObject(sampleObject()), 0x00))
	f.Add(hostileCounts(1<<40, 0, 0, 0))
	f.Add(hostileCounts(1, 1<<40, 0, 0))
	f.Add(hostileCounts(1, 0, 1<<40, 0))
	f.Add(hostileCounts(4000, 0, 0, 4000))
	f.Add(hostileCounts(1, 4000, 0, 4000))
	f.Add(hostileCounts(1, 0, 4000, 4000))
	f.Add(EncodeObject(wideObject(4, 64, 60))) // many relocations, one symbol between them
	f.Fuzz(func(t *testing.T, data []byte) {
		var o *Object
		var err error
		if n := allocatedBy(func() { o, err = DecodeObject(data) }); n > 32*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		enc := EncodeObject(o)
		again, err := DecodeObject(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(enc, EncodeObject(again)) {
			t.Fatal("encoding is not a fixed point over accepted inputs")
		}
	})
}

// FuzzDecodeBinary does the same for executables (wsc-sim, wsc-wpa,
// wsc-objdump, wsc-bolt all read one from a file).
func FuzzDecodeBinary(f *testing.F) {
	f.Add(EncodeBinary(sampleBinary()))
	f.Add([]byte(binMagic))
	f.Add(binary.AppendUvarint([]byte(binMagic+"\x00\x00"), 1<<63)) // text length 2^63
	f.Add(append(EncodeBinary(sampleBinary()), 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBinary(data)
		if err != nil {
			return
		}
		enc := EncodeBinary(b)
		again, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(enc, EncodeBinary(again)) {
			t.Fatal("encoding is not a fixed point over accepted inputs")
		}
	})
}

// wideObject builds an object of sections text sections of size bytes, each
// with relocs relocations and a defining symbol.
func wideObject(sections, size, relocs int) *Object {
	o := &Object{Name: "wide"}
	for i := 0; i < sections; i++ {
		s := &Section{Name: ".text.f" + string(rune('a'+i%26)) + string(rune('a'+i/26)), Kind: SecText, Data: make([]byte, size)}
		for j := 0; j < relocs; j++ {
			s.Relocs = append(s.Relocs, Reloc{Off: int64(j % size), Type: RelPC32, Sym: "callee", Addend: int64(j)})
		}
		idx := o.AddSection(s)
		o.AddSymbol(&Symbol{Name: s.Name[len(".text."):], Kind: SymFunc, Section: idx, Size: int64(size), Global: true})
	}
	return o
}

// TestDecodedSlicesDoNotAlias: appending to one decoded section's bytes or
// relocations reallocates them; the next section's are untouched.
func TestDecodedSlicesDoNotAlias(t *testing.T) {
	data := EncodeObject(wideObject(4, 16, 3))
	o, err := DecodeObject(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range o.Sections {
		s.Data = append(s.Data, 0xAA)[:len(s.Data)]
		s.Relocs = append(s.Relocs, Reloc{Off: 1, Type: RelAbs64, Sym: "intruder"})
		s.Relocs = s.Relocs[:len(s.Relocs)-1]
	}
	o.Sections = append(o.Sections, &Section{Name: "extra"})[:len(o.Sections)]
	o.Symbols = append(o.Symbols, &Symbol{Name: "extra"})[:len(o.Symbols)]
	if !bytes.Equal(EncodeObject(o), data) {
		t.Fatal("an append to one decoded slice changed another")
	}
}

// TestDecodeObjectAllocs: the decoder allocates eight slabs per object —
// the Object, Sections, Symbols, their pointer slices, the section bytes,
// the relocations and the one string every name and relocation symbol is
// cut from — so at most 12 allocations, whatever the section, data and
// relocation counts.
func TestDecodeObjectAllocs(t *testing.T) {
	for _, shape := range [][3]int{{4, 16, 0}, {64, 16, 0}, {64, 4096, 0}, {64, 16, 8}, {512, 16, 32}} {
		data := EncodeObject(wideObject(shape[0], shape[1], shape[2]))
		got := testing.AllocsPerRun(10, func() {
			if _, err := DecodeObject(data); err != nil {
				t.Fatal(err)
			}
		})
		if got > 12 {
			t.Errorf("DecodeObject of %d sections of %d bytes x %d relocations: %.0f allocations, want <= 12", shape[0], shape[1], shape[2], got)
		}
	}
}

// TestDecodedObjectOutlivesInput: the decoded object copies everything it
// holds — section bytes, names, relocation symbols — so overwriting the
// input afterwards changes nothing in its re-encoding.
func TestDecodedObjectOutlivesInput(t *testing.T) {
	data := EncodeObject(wideObject(8, 16, 3))
	want := bytes.Clone(data)
	o, err := DecodeObject(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAA
	}
	if !bytes.Equal(EncodeObject(o), want) {
		t.Fatal("overwriting the input changed the decoded object")
	}
}

// TestValidateAllocs: Validate recycles its duplicate-name set, so after
// warm-up it averages under one allocation per call, and a set handed back
// after a duplicate-symbol error is empty again (the next object, which
// reuses those names once each, still validates).
func TestValidateAllocs(t *testing.T) {
	wide := wideObject(64, 16, 2)
	dup := wideObject(64, 16, 2)
	dup.Symbols[40].Name = dup.Symbols[3].Name
	for i := 0; i < 50; i++ {
		if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("duplicate symbol: err = %v", err)
		}
		if err := wide.Validate(); err != nil {
			t.Fatalf("after a duplicate-symbol error: %v", err)
		}
	}
	if raceEnabled {
		return // the race detector makes sync.Pool drop a share of its Puts
	}
	if a := testing.AllocsPerRun(100, func() { _ = wide.Validate() }); a >= 1 {
		t.Errorf("Validate of a 64-symbol object: %.2f allocations per call, want < 1", a)
	}
}
