package wpa_test

import (
	"fmt"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/core"
	"propeller/internal/profile"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

// profiled builds spec's metadata binary and collects its training profile
// the way the benchmark's ops do (LBR period 211, 400M-instruction budget).
func profiled(b *testing.B, spec workload.Spec) (*bbaddrmap.Map, *profile.Profile, wpa.Config) {
	b.Helper()
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
	return amap, prof, wpa.Config{Workers: 2, BuildID: pm.Binary.BuildID}
}

// The aggregation layer alone, at the sizes of the benchmark's two
// workloads that lean on it: deep is profile-deep (505.mcf shape, 92k
// requests: 235k samples over 90 functions, where aggregation is the
// whole analysis), wide is relink-wide (Superroot, 2000 requests: few
// samples over 13.5k functions, where building the block table is a
// larger share). Shards count records by address and resolve each
// distinct key once, so beside Mrecords/s the benchmark reports
// keys/Mrecord, the distinct keys resolved per million records: the
// redundancy counting removes (about 130 on deep, about 46 000 on wide:
// each of two shards resolves the keys its half of the samples holds).
//
//	go test ./internal/wpa -run '^$' -bench BuildAggregate -benchtime 10x
var aggShapes = []struct {
	name string
	spec func() workload.Spec
}{
	{"deep", func() workload.Spec { s := workload.SPECInt()[2]; s.Requests = 92000; return s }},
	{"wide", func() workload.Spec { s := workload.Superroot(); s.Requests = 2000; return s }},
}

func BenchmarkBuildAggregate(b *testing.B) {
	for _, shape := range aggShapes {
		b.Run(shape.name, func(b *testing.B) {
			amap, prof, cfg := profiled(b, shape.spec())
			records := 0
			for _, s := range prof.Samples {
				records += len(s.Records)
			}
			b.ReportAllocs()
			b.ResetTimer()
			keys := 0
			for i := 0; i < b.N; i++ {
				agg, err := wpa.BuildAggregate(amap, prof, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if agg.Samples() != len(prof.Samples) {
					b.Fatal("samples dropped")
				}
				keys = agg.KeysResolved()
			}
			b.ReportMetric(float64(records)*float64(b.N)/1e6/b.Elapsed().Seconds(), "Mrecords/s")
			b.ReportMetric(float64(keys)/(float64(records)/1e6), "keys/Mrecord")
		})
	}
}

// BenchmarkReconstructPaths times the other consumer of the record walker
// on the profile-deep shape.
func BenchmarkReconstructPaths(b *testing.B) {
	b.Run("deep", func(b *testing.B) {
		amap, prof, _ := profiled(b, aggShapes[0].spec())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			paths, err := wpa.ReconstructPaths(amap, prof, wpa.PathOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(paths) == 0 {
				b.Fatal("no paths reconstructed")
			}
		}
	})
}

// BenchmarkLayoutInterProc times the layout half of the analysis with
// inter-procedural layout on a Bigtable-shaped hot graph — the global
// Ext-TSP run that dominates the benchmark's interproc-layout op, at that
// workload's size (3000 requests, LBR period 211) — so the layer can be
// read without a whole optimize run. The hot graph is one component of
// about 2 200 blocks plus crumbs, so workers=2 (what the op runs with)
// against workers=1 reads what sharing a component's re-scoring batches
// buys; run it at -cpu 2 or more:
//
//	go test ./internal/wpa -run '^$' -bench LayoutInterProc -benchtime 10x
func BenchmarkLayoutInterProc(b *testing.B) {
	spec := workload.Bigtable()
	spec.Requests = 3000
	amap, prof, cfg := profiled(b, spec)
	cfg.InterProc = true
	agg, err := wpa.BuildAggregate(amap, prof, cfg)
	if err != nil {
		b.Fatal(err)
	}
	loadMap := func() (*bbaddrmap.Map, error) { return amap, nil }
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := cfg
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := wpa.Analyze(loadMap, wpa.Prebuilt(agg), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.LayoutShards == 0 {
					b.Fatal("no global layout ran")
				}
			}
		})
	}
}
