package isa_test

import (
	"bytes"
	"errors"
	"testing"

	"propeller/internal/codegen"
	"propeller/internal/isa"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/testprog"
)

// FuzzDecode decodes at every offset of arbitrary bytes — which is what
// the simulator does to a text page, instruction starts or not. Decode
// must not panic; what it accepts must have a size in [1,10] that fits,
// registers in range, and re-encode to exactly the bytes it came from;
// what it rejects must be a *DecodeError for that offset; and TryDecode,
// the allocation-free path the simulator fills its decode table from,
// must agree with it everywhere.
func FuzzDecode(f *testing.F) {
	// A linked text with a jump table inside it (data-in-code).
	obj, err := codegen.Compile(testprog.Switch(8), codegen.Options{DataInCode: true})
	if err != nil {
		f.Fatal(err)
	}
	bin, _, err := linker.Link([]*objfile.Object{obj}, linker.Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Text)
	f.Add([]byte{})
	f.Add([]byte{byte(isa.OpMovI64), 3})                    // cut short
	f.Add([]byte{byte(isa.OpAdd), 1, 16})                   // register out of range
	f.Add([]byte{0xEE, byte(isa.OpHalt), byte(isa.OpJmpS)}) // not an opcode

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		for off := 0; off <= len(data); off++ {
			in, size, err := isa.Decode(data, off)
			tin, tsize := isa.TryDecode(data, off)
			if (err == nil) != (tsize != 0) || tin != in || tsize != size {
				t.Fatalf("offset %d: Decode = (%v, %d, %v), TryDecode = (%v, %d)", off, in, size, err, tin, tsize)
			}
			if err != nil {
				var de *isa.DecodeError
				if !errors.As(err, &de) || de.Offset != off || size != 0 || in != (isa.Inst{}) {
					t.Fatalf("offset %d: rejected as (%v, %d, %#v)", off, in, size, err)
				}
				continue
			}
			if size < 1 || size > isa.MaxInstSize || off+size > len(data) || size != isa.SizeOf(in.Op) {
				t.Fatalf("offset %d: %v decoded with size %d (%d bytes left)", off, in, size, len(data)-off)
			}
			if in.A >= isa.NumRegs || in.B >= isa.NumRegs {
				t.Fatalf("offset %d: %v has a register out of range", off, in)
			}
			if enc := isa.Encode(nil, in); !bytes.Equal(enc, data[off:off+size]) {
				t.Fatalf("offset %d: %v re-encodes to % x, decoded from % x", off, in, enc, data[off:off+size])
			}
		}
	})
}
