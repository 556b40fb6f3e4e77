package layoutfile_test

import (
	"bytes"
	"testing"

	"propeller/internal/core"
	"propeller/internal/layoutfile"
	"propeller/internal/workload"
)

// TestRenderMatchesWriters: Render's bytes are WriteDirectives' and
// WriteOrder's for a real layout decision, the MySQL shape's.
func TestRenderMatchesWriters(t *testing.T) {
	spec := workload.MySQL()
	spec.Requests = 1000
	prog, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(prog.Core, core.RunSpec{MaxInsts: 50_000_000, LBRPeriod: 211}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Directives) == 0 || len(res.Order.Symbols) == 0 {
		t.Fatal("empty layout")
	}
	cc, ld, err := layoutfile.Render(res.Directives, res.Order)
	if err != nil {
		t.Fatal(err)
	}
	var wantCC, wantLD bytes.Buffer
	if err := layoutfile.WriteDirectives(&wantCC, res.Directives); err != nil {
		t.Fatal(err)
	}
	if err := layoutfile.WriteOrder(&wantLD, res.Order); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cc, wantCC.Bytes()) {
		t.Errorf("cc: %d bytes differ from WriteDirectives' %d", len(cc), wantCC.Len())
	}
	if !bytes.Equal(ld, wantLD.Bytes()) {
		t.Errorf("ld: %d bytes differ from WriteOrder's %d", len(ld), wantLD.Len())
	}
}
