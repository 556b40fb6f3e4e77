package workload

import (
	"runtime"
	"testing"
	"time"
)

// resident generates spec and measures what the program costs the
// collector once built: the heap objects it holds, and the fastest of three
// forced collections with it the only program alive.
func resident(tb testing.TB, spec Spec) (p *Program, objects int64, gc time.Duration) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	for i := 0; i < 3; i++ {
		start := time.Now()
		runtime.GC()
		if d := time.Since(start); i == 0 || d < gc {
			gc = d
		}
	}
	runtime.KeepAlive(p)
	return p, int64(after.HeapObjects) - int64(before.HeapObjects), gc
}

// TestGenerateResidentShape: a generated program is resident for every
// pipeline run on it, and the collector marks each of its objects on every
// cycle, so it is slab-laid (ir.CloneModule): under half a heap object per
// block. Built block by block, Bigtable's held about three.
func TestGenerateResidentShape(t *testing.T) {
	p, objects, _ := resident(t, Bigtable())
	blocks := 0
	for _, m := range p.Core.Modules {
		for _, f := range m.Funcs {
			blocks += len(f.Blocks)
		}
	}
	perBlock := float64(objects) / float64(blocks)
	t.Logf("%s: %d heap objects for %d blocks (%.2f per block)", p.Spec.Name, objects, blocks, perBlock)
	if perBlock >= 0.5 {
		t.Errorf("%s holds %.2f heap objects per block, want < 0.5", p.Spec.Name, perBlock)
	}
}

// BenchmarkGenerate times each catalog shape's generation, the copy into
// slabs included, and reports beside it what the built program costs every
// later collection: resident_objects and forced_gc_ms.
//
//	go test ./internal/workload -run '^$' -bench Generate -benchtime 5x
func BenchmarkGenerate(b *testing.B) {
	for _, spec := range Catalog() {
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(spec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_, objects, gc := resident(b, spec)
			b.ReportMetric(float64(objects), "resident_objects")
			b.ReportMetric(float64(gc.Microseconds())/1000, "forced_gc_ms")
		})
	}
}
