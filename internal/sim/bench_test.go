package sim

import (
	"testing"

	"propeller/internal/codegen"
	"propeller/internal/ir"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/testprog"
)

// BuildModules compiles and links mods; exported so the external tests in
// this directory (package sim_test) share it.
func BuildModules(tb testing.TB, mods []*ir.Module, cg codegen.Options, ld linker.Config) *objfile.Binary {
	tb.Helper()
	var objs []*objfile.Object
	for _, m := range mods {
		obj, err := codegen.Compile(m, cg)
		if err != nil {
			tb.Fatal(err)
		}
		objs = append(objs, obj)
	}
	bin, _, err := linker.Link(objs, ld)
	if err != nil {
		tb.Fatal(err)
	}
	return bin
}

// BenchmarkLoad times Load on a multi-module binary; with page-lazy decode
// it is independent of text size (TestLoadAllocs pins the allocations).
func BenchmarkLoad(b *testing.B) {
	bin := BuildModules(b, testprog.MultiModule(), codegen.Options{}, linker.Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bin); err != nil {
			b.Fatal(err)
		}
	}
}
