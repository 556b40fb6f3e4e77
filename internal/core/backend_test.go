package core_test

// A Phase-2 or Phase-4 backend compiles the module the Program holds, not
// a decode of its cached IR. These tests hold that to the decode path it
// replaced and show that backends sharing one Program only read it.

import (
	"bytes"
	"sync"
	"testing"

	"propeller/internal/codegen"
	"propeller/internal/core"
	"propeller/internal/ir"
	"propeller/internal/objfile"
	"propeller/internal/prefetch"
	"propeller/internal/workload"
)

// compileBytes is one backend action's output as the object cache stores it.
func compileBytes(t *testing.T, m *ir.Module, opts codegen.Options) []byte {
	t.Helper()
	obj, err := codegen.Compile(m, opts)
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	return objfile.EncodeObject(obj)
}

// TestCompileModuleMatchesDecodedIR: for every catalog shape and every
// backend plan the pipeline runs — labels with and without data-in-code,
// labels with the heuristic splitter, list mode under a real Optimize
// run's directives and prefetch sites — compiling each module gives the
// object bytes that compiling the decode of its encoded IR gives. The
// decode path is the kept reference: it is what the backends ran before
// they compiled the in-memory module.
func TestCompileModuleMatchesDecodedIR(t *testing.T) {
	sites := 0
	for _, spec := range workload.Catalog() {
		if testing.Short() && spec.NumFuncs > 2000 {
			continue
		}
		spec.Requests = 2000
		prog, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Any load that missed at all gets a prefetch site: the catalog's
		// working sets mostly fit the L1d.
		opts := core.Options{SoftwarePrefetch: true, PrefetchConfig: prefetch.Config{MinMisses: 1}}
		opts.WPA.Workers = 2
		res, err := core.Optimize(prog.Core, core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}, opts)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, s := range res.PrefetchDirectives {
			sites += len(s)
		}
		plans := map[string]codegen.Options{
			"labels":        {Mode: codegen.ModeLabels, DataInCode: true},
			"labels/no-dic": {Mode: codegen.ModeLabels},
			"labels/split":  {Mode: codegen.ModeLabels, DataInCode: true, HeuristicSplit: true},
			"list": {Mode: codegen.ModeList, DataInCode: true,
				Directives: res.Directives, Prefetch: res.PrefetchDirectives},
		}
		for _, m := range prog.Core.Modules {
			decoded, err := ir.DecodeModule(ir.EncodeModule(m))
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Name, m.Name, err)
			}
			for name, cg := range plans {
				if !bytes.Equal(compileBytes(t, m, cg), compileBytes(t, decoded, cg)) {
					t.Errorf("%s %s %s: the in-memory module and its decoded IR compile to different objects", spec.Name, name, m.Name)
				}
			}
		}
	}
	if sites == 0 {
		t.Error("no shape produced a prefetch site: the list plan never inserted one")
	}
}

// TestOptimizeSharedProgram: two Optimize runs on one *Program, each with
// its own caches, at the same time. Their backends read the same modules
// concurrently (CI runs this under -race), and both runs produce the same
// PM and PO binaries and objects.
func TestOptimizeSharedProgram(t *testing.T) {
	mysql := workload.MySQL()
	mysql.Requests = 1000
	for _, spec := range []workload.Spec{workload.Tiny(), mysql} {
		prog, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		var results [2]*core.Result
		var errs [2]error
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = core.Optimize(prog.Core, core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}, core.Options{})
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
		}
		a, b := results[0], results[1]
		for _, pair := range [][2]*core.BuildResult{{a.Metadata, b.Metadata}, {a.Optimized, b.Optimized}} {
			if pair[0].Binary.BuildID != pair[1].Binary.BuildID {
				t.Errorf("%s: build IDs %s and %s", spec.Name, pair[0].Binary.BuildID, pair[1].Binary.BuildID)
			}
			if objectsSHA(pair[0].Objects) != objectsSHA(pair[1].Objects) {
				t.Errorf("%s: object bytes differ between the two runs", spec.Name)
			}
		}
	}
}
