package ir_test

import (
	"bytes"
	"reflect"
	"testing"

	"propeller/internal/ir"
	"propeller/internal/workload"
)

// catalogModules generates spec's program at the benchmark's relink-wide
// request count (the request count only sizes main's driver loop).
func catalogModules(tb testing.TB, spec workload.Spec) []*ir.Module {
	tb.Helper()
	spec.Requests = 2000
	prog, err := workload.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return prog.Core.Modules
}

// TestDecodeModuleMatchesReferenceOnCatalog holds the codec to the one kept in
// reference_test.go over every module of every catalog workload: the same
// encoded bytes and size, the same decoded module modulo the numbering, a
// numbering the verifier accepts, and the same bytes re-encoded.
func TestDecodeModuleMatchesReferenceOnCatalog(t *testing.T) {
	for _, spec := range workload.Catalog() {
		if testing.Short() && spec.NumFuncs > 2000 {
			continue
		}
		for _, m := range catalogModules(t, spec) {
			data := ir.EncodeModule(m)
			if !bytes.Equal(data, ir.RefEncodeModule(m)) || ir.EncodedSize(m) != len(data) {
				t.Fatalf("%s %s: EncodeModule or EncodedSize differs from the reference encoder", spec.Name, m.Name)
			}
			got, err := ir.DecodeModule(data)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ir.RefDecodeModule(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ir.PlainModule(t, got), ir.PlainModule(t, want)) {
				t.Fatalf("%s %s: decoded module differs from the reference decoder's", spec.Name, m.Name)
			}
			if err := ir.Verify(got); err != nil {
				t.Fatalf("%s %s: %v", spec.Name, m.Name, err)
			}
			if !bytes.Equal(ir.EncodeModule(got), data) {
				t.Fatalf("%s %s: re-encoded bytes differ", spec.Name, m.Name)
			}
		}
	}
}

// TestCloneModuleMatchesOnCatalog holds the slab layout to the module it
// copies over every module of every catalog workload: the same encoded
// bytes, a module the verifier accepts, and every block numbered by its
// position in its own function.
func TestCloneModuleMatchesOnCatalog(t *testing.T) {
	for _, spec := range workload.Catalog() {
		if testing.Short() && spec.NumFuncs > 2000 {
			continue
		}
		for _, m := range catalogModules(t, spec) {
			c := ir.CloneModule(m)
			if !bytes.Equal(ir.EncodeModule(c), ir.EncodeModule(m)) {
				t.Fatalf("%s %s: the clone encodes to different bytes", spec.Name, m.Name)
			}
			if err := ir.Verify(c); err != nil {
				t.Fatalf("%s %s: %v", spec.Name, m.Name, err)
			}
			for _, f := range c.Funcs {
				for i, b := range f.Blocks {
					if b.Index() != i || b.Fn != f {
						t.Fatalf("%s %s: block %d of %s has index %d", spec.Name, m.Name, i, f.Name, b.Index())
					}
				}
			}
		}
	}
}

// The IR codec alone on the benchmark's relink-wide shape (Superroot,
// 13.5k functions in 1688 modules, 6 MB encoded):
//
//	go test ./internal/ir -run '^$' -bench 'EncodeModule|DecodeModule' -benchtime 10x
func BenchmarkEncodeModule(b *testing.B) {
	mods := catalogModules(b, workload.Superroot())
	var size int64
	for _, m := range mods {
		size += int64(ir.EncodedSize(m))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mods {
			if len(ir.EncodeModule(m)) == 0 {
				b.Fatal("empty encoding")
			}
		}
	}
}

func BenchmarkDecodeModule(b *testing.B) {
	var encoded [][]byte
	var size int64
	for _, m := range catalogModules(b, workload.Superroot()) {
		data := ir.EncodeModule(m)
		encoded = append(encoded, data)
		size += int64(len(data))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range encoded {
			if _, err := ir.DecodeModule(data); err != nil {
				b.Fatal(err)
			}
		}
	}
}
