package linker_test

import (
	"testing"

	"propeller/internal/core"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/workload"
)

// The link action alone on the benchmark's relink-wide shape (Superroot at
// 2000 requests: 1688 objects, 13.5k text sections): pm is the Phase-2 link
// of the metadata objects, every address map kept; po the Phase-4 relink of
// hot list-mode objects and cold cached ones under the symbol order, cold
// maps dropped.
//
//	go test ./internal/linker -run '^$' -bench Link -benchtime 10x
func BenchmarkLink(b *testing.B) {
	spec := workload.Superroot()
	spec.Requests = 2000
	prog, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Optimize(prog.Core, core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	hot := map[string]bool{}
	for _, m := range prog.Core.Modules {
		for _, f := range m.Funcs {
			if _, ok := res.Directives[f.Name]; ok {
				hot[m.Name] = true
			}
		}
	}
	for _, link := range []struct {
		name string
		objs []*objfile.Object
		cfg  linker.Config
	}{
		{"pm", res.Metadata.Objects, linker.Config{Entry: prog.Core.Entry, EmitAddrMap: true}},
		{"po", res.Optimized.Objects, linker.Config{
			Entry: prog.Core.Entry, Order: &res.Order, EmitAddrMap: true,
			KeepMapFor: func(obj string) bool { return hot[obj] },
		}},
	} {
		b.Run(link.name, func(b *testing.B) {
			var input int64
			for _, o := range link.objs {
				input += o.Stats().Total()
			}
			b.SetBytes(input)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := linker.Link(link.objs, link.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
