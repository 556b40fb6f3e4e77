package wpa

import (
	"bytes"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/profile"
)

// everyFunc shapes every function of a map (funcInfos).
func everyFunc(string) bool { return true }

// synthMap lays out two functions:
//
//	foo at 0x1000: bb0 [0,16) bb1 [16,32) bb2 [32,48) bb3 [48,64)
//	bar at 0x2000: bb0 [0,16)
func synthMap() *bbaddrmap.Map {
	return &bbaddrmap.Map{Funcs: []bbaddrmap.FuncEntry{
		{Name: "foo", Addr: 0x1000, Blocks: []bbaddrmap.BlockEntry{
			{ID: 0, Offset: 0, Size: 16},
			{ID: 1, Offset: 16, Size: 16},
			{ID: 2, Offset: 32, Size: 16},
			{ID: 3, Offset: 48, Size: 16},
		}},
		{Name: "bar", Addr: 0x2000, Blocks: []bbaddrmap.BlockEntry{
			{ID: 0, Offset: 0, Size: 16},
		}},
	}}
}

// synthProfile emits n samples of a loop bb0 -> bb1 -> bb3 -> bb1 ... where
// the branch at the end of bb3 (addr 0x103B, within 10 bytes of block end
// 0x1040) jumps back to bb1 (0x1010), plus calls into bar from bb1.
func synthProfile(n int) *profile.Profile {
	p := &profile.Profile{Binary: "synth", Period: 1000}
	for i := 0; i < n; i++ {
		p.Samples = append(p.Samples, profile.Sample{Records: []profile.Branch{
			{From: 0x103B, To: 0x1010}, // bb3 -> bb1 (back edge)
			{From: 0x101B, To: 0x2000}, // call bar from bb1 tail region
			{From: 0x200F, To: 0x1020}, // ret into bb2... lands at block start
			{From: 0x103B, To: 0x1010}, // loop again
		}})
	}
	return p
}

func TestAnalyzeBuildsDirectives(t *testing.T) {
	res, err := Analyze(held(synthMap()), Samples(synthProfile(50)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := res.Directives["foo"]
	if !ok {
		t.Fatalf("no directive for foo; directives: %+v", res.Directives)
	}
	if len(spec.Clusters) != 1 {
		t.Fatalf("intra mode should emit one cluster, got %d", len(spec.Clusters))
	}
	if spec.Clusters[0][0] != 0 {
		t.Errorf("primary cluster must start with entry, got %v", spec.Clusters[0])
	}
	// bb1 and bb3 are hot; bb1 should be adjacent to bb3 somewhere in the
	// cluster. bb2 was covered by a fall range (0x1020..0x103B) so it is
	// sampled too.
	if !spec.Contains(1) || !spec.Contains(3) {
		t.Errorf("hot blocks missing from cluster: %v", spec.Clusters)
	}
	if res.Stats.BranchEdges == 0 || res.Stats.CallEdges == 0 {
		t.Errorf("stats: %+v", res.Stats)
	}
	if res.Stats.ModeledBytes <= 0 {
		t.Error("no modeled memory")
	}
}

func TestAnalyzeEmptyMap(t *testing.T) {
	if _, err := Analyze(held(&bbaddrmap.Map{}), Samples(synthProfile(1)), Config{}); err == nil {
		t.Error("empty map accepted")
	}
}

func TestOrderContainsHotFuncs(t *testing.T) {
	res, err := Analyze(held(synthMap()), Samples(synthProfile(50)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range res.Order.Symbols {
		seen[s] = true
	}
	if !seen["foo"] {
		t.Errorf("foo missing from symbol order: %v", res.Order.Symbols)
	}
	// foo has a cold block (bb2 may be sampled via ranges; bb0..3 all
	// covered?) — compute: directive lists some blocks; if fewer than 4,
	// foo.cold must be ordered after hot symbols.
	spec := res.Directives["foo"]
	if len(spec.Clusters[0]) < 4 && !seen["foo.cold"] {
		t.Errorf("cold part missing from order: %v", res.Order.Symbols)
	}
}

func TestInterProcSplitsFunctions(t *testing.T) {
	res, err := Analyze(held(synthMap()), Samples(synthProfile(50)), Config{InterProc: true})
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := res.Directives["foo"]
	if !ok {
		t.Fatal("no directive for foo")
	}
	if spec.Clusters[0][0] != 0 {
		t.Errorf("primary cluster must start with entry: %v", spec.Clusters)
	}
	// Every listed symbol must be derivable: fn, fn.N or fn.cold.
	for _, s := range res.Order.Symbols {
		if s == "" {
			t.Error("empty symbol in order")
		}
	}
}

func TestHotThresholdFiltersBlocks(t *testing.T) {
	resLoose, err := Analyze(held(synthMap()), Samples(synthProfile(50)), Config{HotThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	resStrict, err := Analyze(held(synthMap()), Samples(synthProfile(50)), Config{HotThreshold: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	loose := len(resLoose.Directives["foo"].Clusters[0])
	strictSpec, ok := resStrict.Directives["foo"]
	if ok {
		if len(strictSpec.Clusters[0]) > loose {
			t.Errorf("stricter threshold grew the cluster: %d vs %d", len(strictSpec.Clusters[0]), loose)
		}
	}
}

func TestDeterministicAnalysis(t *testing.T) {
	a, err := Analyze(held(synthMap()), Samples(synthProfile(30)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(held(synthMap()), Samples(synthProfile(30)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Order.Symbols) != len(b.Order.Symbols) {
		t.Fatal("nondeterministic symbol order length")
	}
	for i := range a.Order.Symbols {
		if a.Order.Symbols[i] != b.Order.Symbols[i] {
			t.Fatalf("nondeterministic order at %d: %s vs %s", i, a.Order.Symbols[i], b.Order.Symbols[i])
		}
	}
}

func TestAnalyzeStreamMatchesAnalyze(t *testing.T) {
	prof := synthProfile(40)
	inMem, err := Analyze(held(synthMap()), Samples(prof), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prof.Write(&buf); err != nil {
		t.Fatal(err)
	}
	streamed, err := AnalyzeStream(synthMap(), &buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Identical layout decisions...
	if len(streamed.Directives) != len(inMem.Directives) {
		t.Fatalf("directive counts differ: %d vs %d", len(streamed.Directives), len(inMem.Directives))
	}
	for fn, spec := range inMem.Directives {
		got, ok := streamed.Directives[fn]
		if !ok || len(got.Clusters) != len(spec.Clusters) {
			t.Fatalf("%s: cluster mismatch", fn)
		}
	}
	if len(streamed.Order.Symbols) != len(inMem.Order.Symbols) {
		t.Fatal("symbol order length differs")
	}
	// ...with a lower modeled peak: the profile component shrinks to one
	// sample buffer (§5.1's chunked reading).
	if streamed.Stats.ModeledBytes > inMem.Stats.ModeledBytes {
		t.Errorf("streaming did not reduce modeled memory: %d vs %d",
			streamed.Stats.ModeledBytes, inMem.Stats.ModeledBytes)
	}
}
