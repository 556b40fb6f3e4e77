package objfile_test

import (
	"bytes"
	"reflect"
	"testing"

	"propeller/internal/codegen"
	"propeller/internal/objfile"
	"propeller/internal/workload"
)

// catalogObjects compiles spec's program as the Phase-2 build does and
// returns the encoded objects.
func catalogObjects(tb testing.TB, spec workload.Spec) [][]byte {
	tb.Helper()
	spec.Requests = 2000
	prog, err := workload.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, m := range prog.Core.Modules {
		obj, err := codegen.Compile(m, codegen.Options{Mode: codegen.ModeLabels, DataInCode: true})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, objfile.EncodeObject(obj))
	}
	return out
}

// TestDecodeObjectMatchesReference holds the slab decoder to the
// allocate-per-element one kept in reference_test.go over every object of
// every catalog workload: the same object (reflect.DeepEqual), the same
// bytes re-encoded in a buffer of exactly their size.
func TestDecodeObjectMatchesReference(t *testing.T) {
	for _, spec := range workload.Catalog() {
		if testing.Short() && spec.NumFuncs > 2000 {
			continue
		}
		for _, data := range catalogObjects(t, spec) {
			got, err := objfile.DecodeObject(data)
			if err != nil {
				t.Fatal(err)
			}
			want, err := objfile.RefDecodeObject(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: decoded object differs from the reference decoder's", spec.Name, want.Name)
			}
			if enc := objfile.EncodeObject(got); !bytes.Equal(enc, data) || cap(enc) != len(enc) {
				t.Fatalf("%s %s: re-encoded %d bytes in a %d-byte buffer, want the %d decoded", spec.Name, want.Name, len(enc), cap(enc), len(data))
			}
		}
	}
}

// The object decoder alone on the benchmark's relink-wide shape (Superroot:
// 1688 objects, 7 MB, what a relink decodes for its cold modules):
//
//	go test ./internal/objfile -run '^$' -bench DecodeObject -benchtime 10x
func BenchmarkDecodeObject(b *testing.B) {
	encoded := catalogObjects(b, workload.Superroot())
	var size int64
	for _, data := range encoded {
		size += int64(len(data))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range encoded {
			if _, err := objfile.DecodeObject(data); err != nil {
				b.Fatal(err)
			}
		}
	}
}
