package core_test

import (
	"testing"

	"propeller/internal/core"
	"propeller/internal/workload"
)

// BenchmarkPhase3 times Phase 3 alone on the benchmark's profile-deep
// shape (505.mcf, 92k requests: 50M simulated instructions, 235k LBR
// samples, two analysis workers): sequential is the two exported phase
// functions called one after the other, pipelined is the path
// core.Optimize takes, where aggregation runs beside the profiling run.
//
//	go test ./internal/core -run '^$' -bench Phase3 -benchtime 10x -cpu 2
func BenchmarkPhase3(b *testing.B) {
	spec := workload.SPECInt()[2]
	spec.Requests = 92000
	prog, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	pm, err := core.BuildWithMetadata(prog.Core, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	train := core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}
	var opts core.Options
	opts.WPA.Workers = 2
	for _, arm := range []struct {
		name   string
		phase3 func() (samples int, err error)
	}{
		{"sequential", func() (int, error) {
			prof, _, err := core.CollectProfile(pm.Binary, train, false)
			if err != nil {
				return 0, err
			}
			_, err = core.Analyze(pm.Binary, prof, opts)
			return len(prof.Samples), err
		}},
		{"pipelined", func() (int, error) {
			prof, _, _, err := core.CollectAndAnalyze(pm.Binary, train, opts)
			if err != nil {
				return 0, err
			}
			return len(prof.Samples), nil
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			samples := 0
			for i := 0; i < b.N; i++ {
				n, err := arm.phase3()
				if err != nil {
					b.Fatal(err)
				}
				samples += n
			}
			b.ReportMetric(float64(samples)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}
