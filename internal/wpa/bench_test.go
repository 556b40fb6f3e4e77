package wpa_test

import (
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/core"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

// BenchmarkLayoutInterProc times the layout half of the analysis with
// inter-procedural layout on a Bigtable-shaped hot graph — the global
// Ext-TSP run that dominates the benchmark's interproc-layout op, at that
// workload's size (3000 requests, LBR period 211, two workers) — so the
// layer can be read without a whole optimize run:
//
//	go test ./internal/wpa -run '^$' -bench LayoutInterProc -benchtime 10x
func BenchmarkLayoutInterProc(b *testing.B) {
	spec := workload.Bigtable()
	spec.Requests = 3000
	prog, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	pm, err := core.BuildWithMetadata(prog.Core, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prof, _, err := core.CollectProfile(pm.Binary, core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}, false)
	if err != nil {
		b.Fatal(err)
	}
	amap, err := bbaddrmap.Decode(pm.Binary.BBAddrMap)
	if err != nil {
		b.Fatal(err)
	}
	cfg := wpa.Config{Workers: 2, BuildID: pm.Binary.BuildID, InterProc: true}
	agg, err := wpa.BuildAggregate(amap, prof, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := wpa.AnalyzeAggregate(amap, agg, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.LayoutShards == 0 {
			b.Fatal("no global layout ran")
		}
	}
}
