package codegen_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"propeller/internal/codegen"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/layoutfile"
	"propeller/internal/objfile"
	"propeller/internal/prefetch"
	"propeller/internal/workload"
)

func catalogModules(tb testing.TB, spec workload.Spec) []*ir.Module {
	tb.Helper()
	spec.Requests = 2000
	prog, err := workload.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return prog.Core.Modules
}

// randomDirectives draws, for about half of the module's functions, a
// cluster directive (the entry first, a random subset of the other blocks
// in random order, cut into one to three clusters; the rest fall to .cold)
// and, for some of their loads, a prefetch insertion site.
func randomDirectives(rng *rand.Rand, m *ir.Module) (layoutfile.Directives, prefetch.Directives) {
	dirs, pf := layoutfile.Directives{}, prefetch.Directives{}
	for _, f := range m.Funcs {
		if rng.Intn(2) == 0 {
			continue
		}
		ids := []int{f.Entry().ID}
		for _, i := range rng.Perm(len(f.Blocks) - 1) {
			if rng.Intn(3) > 0 {
				ids = append(ids, f.Blocks[i+1].ID)
			}
		}
		var clusters [][]int
		for len(ids) > 0 {
			n := 1 + rng.Intn(len(ids))
			if len(clusters) == 2 {
				n = len(ids)
			}
			clusters, ids = append(clusters, ids[:n]), ids[n:]
		}
		dirs[f.Name] = layoutfile.ClusterSpec{Clusters: clusters}
		for _, b := range f.Blocks {
			off := uint64(0)
			for _, in := range b.Ins {
				if in.Op == isa.OpLoad && rng.Intn(4) == 0 {
					pf[f.Name] = append(pf[f.Name], prefetch.Site{Fn: f.Name, Block: b.ID, Off: off, Delta: int64(64 * (1 + rng.Intn(4)))})
				}
				off += uint64(isa.SizeOf(in.Op))
			}
		}
	}
	return dirs, pf
}

// TestCompileMatchesReference holds the backend to the map-based lowering
// kept in reference_test.go: the same object bytes for every module of
// every catalog workload, in every mode, with jump tables in text and in
// rodata, with the heuristic splitter on, and in list mode under random
// cluster and prefetch directives.
func TestCompileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, spec := range workload.Catalog() {
		if testing.Short() && spec.NumFuncs > 2000 {
			continue
		}
		for _, m := range catalogModules(t, spec) {
			dirs, pf := randomDirectives(rng, m)
			for _, opts := range []codegen.Options{
				{Mode: codegen.ModeNone, DataInCode: true},
				{Mode: codegen.ModeLabels, DataInCode: true},
				{Mode: codegen.ModeLabels},
				{Mode: codegen.ModeLabels, DataInCode: true, HeuristicSplit: true, DebugInfo: true},
				{Mode: codegen.ModeAll, DataInCode: true},
				{Mode: codegen.ModeAll},
				{Mode: codegen.ModeList, DataInCode: true, Directives: dirs, Prefetch: pf},
				{Mode: codegen.ModeList, Directives: dirs, DebugInfo: true},
			} {
				got, err := codegen.Compile(m, opts)
				if err != nil {
					t.Fatalf("%s %s %v: %v", spec.Name, m.Name, opts.Mode, err)
				}
				want, err := codegen.RefCompile(m, opts)
				if err != nil {
					t.Fatalf("%s %s %v: reference: %v", spec.Name, m.Name, opts.Mode, err)
				}
				if !bytes.Equal(objfile.EncodeObject(got), objfile.EncodeObject(want)) {
					t.Fatalf("%s %s %v (data in code %t): object differs from the reference lowering's", spec.Name, m.Name, opts.Mode, opts.DataInCode)
				}
			}
		}
	}
}

// TestSharedModuleConcurrentReaders: eval's and policysearch's worker
// fan-outs encode, verify, clone and compile the modules of one shared
// Program from several goroutines. All of them read the block numbering;
// under -race this fails if any of them writes it.
func TestSharedModuleConcurrentReaders(t *testing.T) {
	mods := catalogModules(t, workload.Tiny())
	want := make([][]byte, len(mods))
	for i, m := range mods {
		want[i] = ir.EncodeModule(m)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, m := range mods {
				if !bytes.Equal(ir.EncodeModule(m), want[i]) {
					t.Errorf("%s: concurrent EncodeModule produced different bytes", m.Name)
				}
				ir.CloneModule(m)
				for _, mode := range []codegen.Mode{codegen.ModeLabels, codegen.ModeAll} {
					if _, err := codegen.Compile(m, codegen.Options{Mode: mode, HeuristicSplit: true}); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// The backend alone on the benchmark's relink-wide shape (Superroot, 13.5k
// functions, 150k blocks): labels is the Phase-2 build of every module,
// list the Phase-4 rebuild under a directive for every function.
//
//	go test ./internal/codegen -run '^$' -bench Compile -benchtime 10x
func BenchmarkCompile(b *testing.B) {
	mods := catalogModules(b, workload.Superroot())
	dirs := layoutfile.Directives{}
	var irBytes int64
	for _, m := range mods {
		irBytes += int64(ir.EncodedSize(m))
		for _, f := range m.Funcs {
			// The hot half of every function, in creation order.
			ids := make([]int, 0, len(f.Blocks)/2+1)
			for _, blk := range f.Blocks[:len(f.Blocks)/2+1] {
				ids = append(ids, blk.ID)
			}
			dirs[f.Name] = layoutfile.ClusterSpec{Clusters: [][]int{ids}}
		}
	}
	for _, mode := range []codegen.Options{
		{Mode: codegen.ModeLabels, DataInCode: true},
		{Mode: codegen.ModeList, DataInCode: true, Directives: dirs},
	} {
		b.Run(mode.Mode.String(), func(b *testing.B) {
			b.SetBytes(irBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range mods {
					if _, err := codegen.Compile(m, mode); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
