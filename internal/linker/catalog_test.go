package linker_test

import (
	"bytes"
	"testing"

	"propeller/internal/core"
	"propeller/internal/linker"
	"propeller/internal/workload"
)

// TestSpliceMatchesReference holds the spliced address map to the
// decode-rebase-encode merge kept in reference_test.go on every catalog
// shape's PM link (every map kept) and PO link (under the symbol order, the
// maps of the hot modules only), byte for byte, and checks that every kept
// function's blocks tile its placed text section.
func TestSpliceMatchesReference(t *testing.T) {
	for _, spec := range workload.Catalog() {
		if testing.Short() && spec.NumFuncs > 2000 {
			continue
		}
		spec.Requests = 2000
		prog, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Optimize(prog.Core, core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}, core.Options{})
		if err != nil {
			t.Fatal(err)
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
			res  *core.BuildResult
			cfg  linker.Config
		}{
			{"pm", res.Metadata, linker.Config{Entry: prog.Core.Entry}},
			{"po", res.Optimized, linker.Config{
				Entry: prog.Core.Entry, Order: &res.Order,
				KeepMapFor: func(obj string) bool { return hot[obj] },
			}},
		} {
			bin, want, err := linker.RefLinkAddrMap(link.res.Objects, link.cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Name, link.name, err)
			}
			if len(want) == 0 || !bytes.Equal(bin.BBAddrMap, want) {
				t.Fatalf("%s %s: spliced map (%d bytes) differs from the reference merge's (%d bytes)", spec.Name, link.name, len(bin.BBAddrMap), len(want))
			}
			if err := linker.CheckAddrMapTiles(bin); err != nil {
				t.Fatalf("%s %s: %v", spec.Name, link.name, err)
			}
		}
	}
}
