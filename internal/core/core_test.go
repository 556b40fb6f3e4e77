package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"propeller/internal/buildsys"
	"propeller/internal/ir"
	"propeller/internal/layoutfile"
	"propeller/internal/prefetch"
	"propeller/internal/sim"
	"propeller/internal/testprog"
	"propeller/internal/wpa"
)

func multiModuleProgram() *Program {
	return &Program{Name: "testapp", Modules: testprog.MultiModule(), Entry: "main"}
}

func runBinary(t *testing.T, b *BuildResult) *sim.Result {
	t.Helper()
	mach, err := sim.Load(b.Binary)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run(sim.Config{MaxInsts: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOptimizeEndToEnd(t *testing.T) {
	p := multiModuleProgram()
	opts := Options{
		IRCache:  buildsys.NewCache(),
		ObjCache: buildsys.NewCache(),
	}
	res, err := Optimize(p, RunSpec{MaxInsts: 20_000_000, LBRPeriod: 211}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metadata.Binary.BBAddrMap == nil {
		t.Error("metadata binary missing BB address map")
	}
	if len(res.Directives) == 0 {
		t.Fatal("no layout directives produced")
	}
	if _, ok := res.Directives["main"]; !ok {
		t.Errorf("hot function main missing from directives: %v", res.SortedHotFunctions())
	}
	if res.HotModules == 0 {
		t.Error("no hot modules")
	}
	if res.ColdModules == 0 {
		t.Error("no cold modules: cache reuse path untested")
	}
	// Cold objects must have come from the object cache.
	if st := opts.ObjCache.Stats(); st.Hits == 0 {
		t.Error("no object cache hits during relink")
	}

	// Semantics preserved.
	mRes := runBinary(t, res.Metadata)
	oRes := runBinary(t, res.Optimized)
	if mRes.Exit != oRes.Exit {
		t.Fatalf("optimization changed semantics: %d vs %d", mRes.Exit, oRes.Exit)
	}
	// The optimized layout must not take more branches than the baseline
	// (HotCold's cold block sits mid-loop in the original layout).
	if oRes.Counters.TakenBranch > mRes.Counters.TakenBranch {
		t.Errorf("optimized layout takes more branches: %d vs %d",
			oRes.Counters.TakenBranch, mRes.Counters.TakenBranch)
	}
	if oRes.Cycles > mRes.Cycles {
		t.Errorf("optimized binary slower: %d vs %d cycles", oRes.Cycles, mRes.Cycles)
	}

	// The optimized binary keeps maps only for hot objects.
	if res.Optimized.Binary.BBAddrMap == nil {
		t.Error("optimized binary lost its hot-object address maps")
	}
	if res.Optimized.Binary.Stats().BBAddrMap >= res.Metadata.Binary.Stats().BBAddrMap {
		t.Error("cold maps were not dropped in the relink")
	}

	// Phase stats populated.
	for i, ps := range []PhaseStats{res.Phase2, res.Phase3, res.Phase4} {
		if ps.TotalCost <= 0 || ps.PeakMem <= 0 {
			t.Errorf("phase %d stats empty: %+v", i+2, ps)
		}
	}
	// Phase 4 backends touch only hot modules, so they must be cheaper
	// than the full Phase 2 backends.
	if res.Optimized.Backends >= res.Metadata.Backends {
		t.Errorf("relink backends (%f) not cheaper than full build (%f)",
			res.Optimized.Backends, res.Metadata.Backends)
	}
}

func TestBaselineVsMetadataSize(t *testing.T) {
	p := multiModuleProgram()
	base, err := BuildBaseline(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := BuildWithMetadata(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bs, ms := base.Binary.Stats(), meta.Binary.Stats()
	if ms.BBAddrMap == 0 {
		t.Error("metadata build has no map bytes")
	}
	if bs.BBAddrMap != 0 {
		t.Error("baseline build has map bytes")
	}
	if bs.Text != ms.Text {
		t.Errorf("metadata changed text size: %d vs %d (labels must not affect layout)", bs.Text, ms.Text)
	}
	// Same runtime behaviour.
	rb := runBinary(t, base)
	rm := runBinary(t, meta)
	if rb.Exit != rm.Exit {
		t.Errorf("exit differs: %d vs %d", rb.Exit, rm.Exit)
	}
	if rb.Cycles != rm.Cycles {
		t.Errorf("metadata affected performance: %d vs %d cycles", rb.Cycles, rm.Cycles)
	}
}

func TestOptimizeValidation(t *testing.T) {
	if _, err := Optimize(&Program{Name: "empty"}, RunSpec{}, Options{}); err == nil {
		t.Error("empty program accepted")
	}
	m1 := testprog.SumLoop(5)
	m2 := testprog.SumLoop(5)
	p := &Program{Name: "dup", Modules: []*ir.Module{m1, m2}}
	if _, err := Optimize(p, RunSpec{}, Options{}); err == nil || !strings.Contains(err.Error(), "duplicate module") {
		t.Errorf("duplicate modules: err = %v", err)
	}
}

func TestRelinkRequiresCaches(t *testing.T) {
	p := multiModuleProgram()
	if _, _, _, err := Relink(p, nil, nil, Options{}); err == nil {
		t.Error("Relink without caches accepted")
	}
}

func TestInterProcPipeline(t *testing.T) {
	p := multiModuleProgram()
	opts := Options{InterProc: true}
	res, err := Optimize(p, RunSpec{MaxInsts: 20_000_000, LBRPeriod: 211}, opts)
	if err != nil {
		t.Fatal(err)
	}
	mRes := runBinary(t, res.Metadata)
	oRes := runBinary(t, res.Optimized)
	if mRes.Exit != oRes.Exit {
		t.Fatalf("inter-proc layout changed semantics: %d vs %d", mRes.Exit, oRes.Exit)
	}
}

// TestPhase3MakespanSplitsPhases pins the §4.7 Phase-3 makespan model:
// the modeled span splits between aggregation and layout by their
// measured wall shares, and each arm divides by its own parallelism. The
// old model divided the entire span by the worker count even when the
// InterProc layout ran serial, overstating scaling 4x in the case below.
func TestPhase3MakespanSplitsPhases(t *testing.T) {
	st := wpa.Stats{
		Records:       1_000_000,
		AggregateWall: 300 * time.Millisecond,
		MergeWall:     100 * time.Millisecond,
		LayoutWall:    600 * time.Millisecond,
	}
	total := float64(st.Records) * 2e-6 // costWPAPerRecord
	if got := Phase3Makespan(st, 0); got != total {
		t.Errorf("workers=0: makespan = %v, want unscaled %v", got, total)
	}
	if got := Phase3Makespan(st, 1); got != total {
		t.Errorf("workers=1: makespan = %v, want unscaled %v", got, total)
	}

	// Serial layout (LayoutWorkers 1, today's InterProc arm before
	// sharding): only the aggregation 40% share scales.
	st.LayoutWorkers = 1
	want := total*0.4/4 + total*0.6
	if got := Phase3Makespan(st, 4); math.Abs(got-want) > 1e-12 {
		t.Errorf("serial layout, workers=4: makespan = %v, want %v", got, want)
	}

	// Sharded layout with enough components: both arms scale.
	st.LayoutWorkers = 4
	want = total / 4
	if got := Phase3Makespan(st, 4); math.Abs(got-want) > 1e-12 {
		t.Errorf("sharded layout, workers=4: makespan = %v, want %v", got, want)
	}

	// Layout parallelism is clamped by the component count.
	st.LayoutWorkers = 2
	want = total*0.4/8 + total*0.6/2
	if got := Phase3Makespan(st, 8); math.Abs(got-want) > 1e-12 {
		t.Errorf("2 shards, workers=8: makespan = %v, want %v", got, want)
	}

	// Synthetic stats without measured walls: pre-split behavior.
	if got := Phase3Makespan(wpa.Stats{Records: 500}, 5); got != float64(500)*2e-6/5 {
		t.Errorf("no walls: makespan = %v", got)
	}
}

// TestInterProcPhase3Model checks the end-to-end wiring: an InterProc
// Optimize run's Phase-3 makespan must equal the model applied to the
// analysis stats it reports, and must never scale below what the
// effective layout parallelism permits.
func TestInterProcPhase3Model(t *testing.T) {
	p := multiModuleProgram()
	opts := Options{InterProc: true}
	opts.WPA.Workers = 4
	res, err := Optimize(p, RunSpec{MaxInsts: 20_000_000, LBRPeriod: 211}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Phase3.Makespan, Phase3Makespan(res.WPAStats, 4); got != want {
		t.Errorf("Phase3.Makespan = %v, want model value %v", got, want)
	}
	if res.Phase3.TotalCost < res.Phase3.Makespan {
		t.Errorf("makespan %v exceeds total cost %v", res.Phase3.Makespan, res.Phase3.TotalCost)
	}
	if res.WPAStats.LayoutWorkers < 1 || res.WPAStats.LayoutWorkers > 4 {
		t.Errorf("effective layout workers = %d, want 1..4", res.WPAStats.LayoutWorkers)
	}
	if res.WPAStats.LayoutShards < 1 {
		t.Errorf("layout shards = %d, want >= 1", res.WPAStats.LayoutShards)
	}
}

func TestHugePagesPipeline(t *testing.T) {
	p := multiModuleProgram()
	res, err := Optimize(p, RunSpec{MaxInsts: 10_000_000, LBRPeriod: 211}, Options{HugePages: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimized.Binary.HugePages {
		t.Error("optimized binary not hugepage-mapped")
	}
	oRes := runBinary(t, res.Optimized)
	mRes := runBinary(t, res.Metadata)
	if oRes.Exit != mRes.Exit {
		t.Error("hugepages changed semantics")
	}
}

// listObjCacheKeyReference is listObjCacheKey as first written, every part
// through fmt: the key the strconv version must keep returning (a moved
// key would turn every warm relink's hot-object hits into misses).
func listObjCacheKeyReference(irKey string, m *ir.Module, dirs layoutfile.Directives, opts Options) string {
	parts := []string{"obj-list", irKey, fmt.Sprintf("dic=%t", !opts.NoDataInCode)}
	for _, f := range m.Funcs {
		if spec, ok := dirs[f.Name]; ok {
			parts = append(parts, fmt.Sprintf("d:%s:%v", f.Name, spec.Clusters))
		}
		if sites, ok := opts.prefetchDirectives[f.Name]; ok {
			parts = append(parts, fmt.Sprintf("p:%s:%v", f.Name, sites))
		}
	}
	return buildsys.KeyStrings(parts...)
}

// TestListObjCacheKeyMatchesReference: random directives and prefetch
// sites, empty and nil clusters and site lists included, and both
// data-in-code settings key the same as the fmt formula.
func TestListObjCacheKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := ir.NewModule("m")
	for i := 0; i < 6; i++ {
		m.NewFunc(fmt.Sprintf("f%d", i), 0)
	}
	for iter := 0; iter < 200; iter++ {
		dirs := layoutfile.Directives{}
		sites := prefetch.Directives{}
		for _, f := range m.Funcs {
			if rng.Intn(3) > 0 {
				var spec layoutfile.ClusterSpec
				for c := rng.Intn(4) - 1; c >= 0; c-- {
					cl := []int{}
					for k := rng.Intn(4); k > 0; k-- {
						cl = append(cl, rng.Intn(300))
					}
					spec.Clusters = append(spec.Clusters, cl)
				}
				dirs[f.Name] = spec
			}
			if rng.Intn(3) == 0 {
				var ss []prefetch.Site
				for k := rng.Intn(3); k > 0; k-- {
					ss = append(ss, prefetch.Site{Fn: f.Name, Block: rng.Intn(40), Off: uint64(rng.Intn(90)), Delta: int64(rng.Intn(200) - 100)})
				}
				sites[f.Name] = ss
			}
		}
		opts := Options{NoDataInCode: rng.Intn(2) == 0, prefetchDirectives: sites}
		if got, want := listObjCacheKey("irkey", m, dirs, opts), listObjCacheKeyReference("irkey", m, dirs, opts); got != want {
			t.Fatalf("iteration %d: key %s, reference %s (directives %v, sites %v)", iter, got, want, dirs, sites)
		}
	}
}
