package core_test

import (
	"bytes"
	"testing"

	"propeller/internal/core"
	"propeller/internal/workload"
)

// TestMetadataLeavesImageUnchanged: the Phase-2 metadata build differs
// from the baseline only in its BB address map. The address map must not
// change code, so Base and PM have the same entry, segment bases, text,
// rodata and data (and with them the same build ID), on the tiny shape
// and on MySQL, with jump tables in text.
func TestMetadataLeavesImageUnchanged(t *testing.T) {
	for _, spec := range []workload.Spec{workload.Tiny(), workload.MySQL()} {
		prog, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		base, err := core.BuildBaseline(prog.Core, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		pm, err := core.BuildWithMetadata(prog.Core, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		b, m := base.Binary, pm.Binary
		if len(m.BBAddrMap) == 0 || len(b.BBAddrMap) != 0 {
			t.Fatalf("%s: address map of %d bytes in PM, %d in Base", spec.Name, len(m.BBAddrMap), len(b.BBAddrMap))
		}
		for _, seg := range []struct {
			name       string
			base, meta []byte
		}{{"text", b.Text, m.Text}, {"rodata", b.Rodata, m.Rodata}, {"data", b.Data, m.Data}} {
			if !bytes.Equal(seg.base, seg.meta) {
				t.Errorf("%s: %s differs: %d bytes in Base, %d in PM", spec.Name, seg.name, len(seg.base), len(seg.meta))
			}
		}
		if b.Entry != m.Entry || b.TextBase != m.TextBase || b.RodataBase != m.RodataBase || b.DataBase != m.DataBase {
			t.Errorf("%s: entry and bases %#x %#x %#x %#x in Base, %#x %#x %#x %#x in PM", spec.Name,
				b.Entry, b.TextBase, b.RodataBase, b.DataBase, m.Entry, m.TextBase, m.RodataBase, m.DataBase)
		}
		if b.BuildID != m.BuildID {
			t.Errorf("%s: build ID %s in Base, %s in PM", spec.Name, b.BuildID, m.BuildID)
		}
	}
}
