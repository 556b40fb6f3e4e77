package linker_test

import (
	"bytes"
	"testing"

	"propeller/internal/codegen"
	"propeller/internal/core"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/workload"
)

// TestLinkLeavesInputsUnchanged links two sets of MySQL objects whose
// relaxation edits text: the inter-procedurally laid out PO objects under
// the relink's configuration (relaxation shrinks branches) and every
// module compiled into per-block sections (it also deletes fall-through
// jumps). The link keeps its edits in private copies and its patches in
// the output image: each input object encodes to the same bytes after
// every link, and linking the same objects again gives the same encoded
// binary.
func TestLinkLeavesInputsUnchanged(t *testing.T) {
	spec := workload.MySQL()
	spec.Requests = 2000
	prog, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Core
	res, err := core.Optimize(p, core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}, core.Options{InterProc: true})
	if err != nil {
		t.Fatal(err)
	}
	hot := map[string]bool{}
	for _, m := range p.Modules {
		for _, f := range m.Funcs {
			if _, ok := res.Directives[f.Name]; ok {
				hot[m.Name] = true
			}
		}
	}
	var all []*objfile.Object
	for _, m := range p.Modules {
		obj, err := codegen.Compile(m, codegen.Options{Mode: codegen.ModeAll, DataInCode: true})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, obj)
	}
	var deleted, shrunk int
	for _, link := range []struct {
		name string
		objs []*objfile.Object
		cfg  linker.Config
	}{
		{"po-interproc", res.Optimized.Objects, linker.Config{
			Entry: p.Entry, Order: &res.Order, EmitAddrMap: true,
			KeepMapFor: func(obj string) bool { return hot[obj] },
		}},
		{"all-sections", all, linker.Config{Entry: p.Entry, EmitAddrMap: true}},
	} {
		before := make([][]byte, len(link.objs))
		for i, o := range link.objs {
			before[i] = objfile.EncodeObject(o)
		}
		var first []byte
		for round := 0; round < 2; round++ {
			bin, st, err := linker.Link(link.objs, link.cfg)
			if err != nil {
				t.Fatalf("%s: %v", link.name, err)
			}
			for i, o := range link.objs {
				if !bytes.Equal(objfile.EncodeObject(o), before[i]) {
					t.Fatalf("%s round %d: the link changed input object %s", link.name, round, o.Name)
				}
			}
			enc := objfile.EncodeBinary(bin)
			if round == 0 {
				first = enc
				deleted += st.JumpsDeleted
				shrunk += st.BranchesShrunk
			} else if !bytes.Equal(enc, first) {
				t.Fatalf("%s: linking the same objects again gave a different binary", link.name)
			}
		}
	}
	if deleted == 0 || shrunk == 0 {
		t.Errorf("relaxation deleted %d jumps and shrank %d branches: the links edit too little to test", deleted, shrunk)
	}
}
