package wpa

import (
	"reflect"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/profile"
)

// pathMap lays out two functions with enough blocks for multi-block
// paths on both sides of a function boundary:
//
//	foo at 0x1000: bb0 [0,16) bb1 [16,32) bb2 [32,48) bb3 [48,64)
//	bar at 0x2000: bb0 [0,16) bb1 [16,32)
func pathMap() *bbaddrmap.Map {
	return &bbaddrmap.Map{Funcs: []bbaddrmap.FuncEntry{
		{Name: "foo", Addr: 0x1000, Blocks: []bbaddrmap.BlockEntry{
			{ID: 0, Offset: 0, Size: 16},
			{ID: 1, Offset: 16, Size: 16},
			{ID: 2, Offset: 32, Size: 16},
			{ID: 3, Offset: 48, Size: 16},
		}},
		{Name: "bar", Addr: 0x2000, Blocks: []bbaddrmap.BlockEntry{
			{ID: 0, Offset: 0, Size: 16},
			{ID: 1, Offset: 16, Size: 16},
		}},
	}}
}

func onePath(t *testing.T, ps PathSet, fn string) HotPath {
	t.Helper()
	if len(ps[fn]) != 1 {
		t.Fatalf("want exactly one path for %s, got %+v (full set %+v)", fn, ps[fn], ps)
	}
	return ps[fn][0]
}

func TestReconstructSimpleBranchPath(t *testing.T) {
	t.Cleanup(SetPathLimits(pathMaxLen, 1, pathMaxPerFunc))
	// One taken branch bb0 -> bb3 inside foo.
	prof := &profile.Profile{Samples: []profile.Sample{
		{Records: []profile.Branch{{From: 0x100B, To: 0x1030}}},
	}}
	ps, err := ReconstructPaths(pathMap(), prof)
	if err != nil {
		t.Fatal(err)
	}
	p := onePath(t, ps, "foo")
	if !reflect.DeepEqual(p.Blocks, []int{0, 3}) || p.Count != 1 {
		t.Errorf("path = %+v, want blocks [0 3] count 1", p)
	}
}

// TestReconstructFullDepthRing stitches a sample holding exactly
// profile.LBRDepth records — the ring-wrap case, where the hardware
// buffer is completely full — into one long path with no records
// dropped at the wrap boundary.
func TestReconstructFullDepthRing(t *testing.T) {
	t.Cleanup(SetPathLimits(128, 1, pathMaxPerFunc))
	// Every record is the loop back-edge bb3 -> bb1; between records the
	// fall-through range [0x1010, 0x103B] credits bb1, bb2, bb3.
	recs := make([]profile.Branch, profile.LBRDepth)
	for i := range recs {
		recs[i] = profile.Branch{From: 0x103B, To: 0x1010}
	}
	prof := &profile.Profile{Samples: []profile.Sample{{Records: recs}}}
	ps, err := ReconstructPaths(pathMap(), prof)
	if err != nil {
		t.Fatal(err)
	}
	p := onePath(t, ps, "foo")
	// Record 0 contributes [3 1 2 3]; records 1..30 contribute [1 2 3]
	// each via branch target + fall-through; the final record has no
	// successor so it contributes only its branch target.
	wantLen := 4 + (profile.LBRDepth-2)*3 + 1
	if len(p.Blocks) != wantLen || p.Count != 1 {
		t.Fatalf("full-ring path len %d count %d, want len %d count 1 (%v)", len(p.Blocks), p.Count, wantLen, p.Blocks)
	}
	if !reflect.DeepEqual(p.Blocks[:4], []int{3, 1, 2, 3}) {
		t.Errorf("full-ring path prefix %v, want [3 1 2 3]", p.Blocks[:4])
	}
}

// TestReconstructTruncatedTrailingRecord: a record pair whose successor
// source precedes the branch target (a cut-short trailing record) has no
// coherent fall-through range; the path must flush rather than invent
// one, and an unresolvable final record must not extend anything.
func TestReconstructTruncatedTrailingRecord(t *testing.T) {
	t.Cleanup(SetPathLimits(pathMaxLen, 1, pathMaxPerFunc))
	prof := &profile.Profile{Samples: []profile.Sample{
		{Records: []profile.Branch{
			{From: 0x100B, To: 0x1030}, // bb0 -> bb3
			{From: 0x1000, To: 0x9999}, // next.From < prev.To, target unmapped
		}},
	}}
	ps, err := ReconstructPaths(pathMap(), prof)
	if err != nil {
		t.Fatal(err)
	}
	p := onePath(t, ps, "foo")
	if !reflect.DeepEqual(p.Blocks, []int{0, 3}) || p.Count != 1 {
		t.Errorf("truncated sample path = %+v, want blocks [0 3] count 1", p)
	}
}

// TestReconstructDuplicatedSamples: a transport-duplicated sample doubles
// its paths' counts and changes nothing else.
func TestReconstructDuplicatedSamples(t *testing.T) {
	t.Cleanup(SetPathLimits(pathMaxLen, 1, pathMaxPerFunc))
	s := profile.Sample{Records: []profile.Branch{{From: 0x100B, To: 0x1030}}}
	once := &profile.Profile{Samples: []profile.Sample{s}}
	twice := &profile.Profile{Samples: []profile.Sample{s, s}}
	ps1, err := ReconstructPaths(pathMap(), once)
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := ReconstructPaths(pathMap(), twice)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := onePath(t, ps1, "foo"), onePath(t, ps2, "foo")
	if !reflect.DeepEqual(p1.Blocks, p2.Blocks) {
		t.Errorf("duplication changed the path: %v vs %v", p1.Blocks, p2.Blocks)
	}
	if p2.Count != 2*p1.Count {
		t.Errorf("duplicated sample count = %d, want %d", p2.Count, 2*p1.Count)
	}
}

// TestReconstructSplitsAtFunctionBoundary: a fall-through range that runs
// off the end of foo into bar, followed by a bar-internal branch, must
// produce two single-function paths — never one path mixing functions.
func TestReconstructSplitsAtFunctionBoundary(t *testing.T) {
	t.Cleanup(SetPathLimits(pathMaxLen, 1, pathMaxPerFunc))
	prof := &profile.Profile{Samples: []profile.Sample{
		{Records: []profile.Branch{
			{From: 0x100B, To: 0x1030}, // foo bb0 -> bb3
			{From: 0x200B, To: 0x2010}, // bar bb0 -> bb1; range [0x1030,0x200B] crosses into bar
		}},
	}}
	ps, err := ReconstructPaths(pathMap(), prof)
	if err != nil {
		t.Fatal(err)
	}
	foo := onePath(t, ps, "foo")
	bar := onePath(t, ps, "bar")
	if !reflect.DeepEqual(foo.Blocks, []int{0, 3}) {
		t.Errorf("foo path = %v, want [0 3]", foo.Blocks)
	}
	if !reflect.DeepEqual(bar.Blocks, []int{0, 1}) {
		t.Errorf("bar path = %v, want [0 1]", bar.Blocks)
	}
}

// TestReconstructFiltersAndCaps: the minimum count drops cold paths, the
// per-function cap keeps the hottest, and ordering is count-descending.
func TestReconstructFiltersAndCaps(t *testing.T) {
	hot := profile.Sample{Records: []profile.Branch{{From: 0x100B, To: 0x1030}}}  // [0 3]
	cold := profile.Sample{Records: []profile.Branch{{From: 0x100B, To: 0x1020}}} // [0 2]
	prof := &profile.Profile{Samples: []profile.Sample{hot, hot, hot, cold}}
	ps, err := ReconstructPaths(pathMap(), prof)
	if err != nil {
		t.Fatal(err)
	}
	p := onePath(t, ps, "foo")
	if !reflect.DeepEqual(p.Blocks, []int{0, 3}) || p.Count != 3 {
		t.Errorf("filtered path = %+v, want [0 3] count 3", p)
	}
	// With a minimum count of 1 both paths survive; a cap of 1 keeps the
	// hottest.
	t.Cleanup(SetPathLimits(pathMaxLen, 1, 1))
	ps, err = ReconstructPaths(pathMap(), prof)
	if err != nil {
		t.Fatal(err)
	}
	p = onePath(t, ps, "foo")
	if !reflect.DeepEqual(p.Blocks, []int{0, 3}) {
		t.Errorf("capped set kept %v, want the hottest path [0 3]", p.Blocks)
	}
}

// TestPathClonePolicyProducesValidClusters: PathClone layouts remain
// valid permutations of the hot set with the entry first, whatever the
// reconstructed paths look like.
func TestPathClonePolicyProducesValidClusters(t *testing.T) {
	m, prof := synthMap(), synthProfile(50)
	res, err := Analyze(held(m), Samples(prof), Config{Policy: Policy{PathClone: true}})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Analyze(held(m), Samples(prof), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for fn, spec := range res.Directives {
		if len(spec.Clusters) != 1 {
			t.Fatalf("%s: %d clusters, want 1", fn, len(spec.Clusters))
		}
		seen := map[int]bool{}
		for _, id := range spec.Clusters[0] {
			if seen[id] {
				t.Fatalf("%s: duplicate block %d in cluster %v", fn, id, spec.Clusters[0])
			}
			seen[id] = true
		}
		baseSpec, ok := base.Directives[fn]
		if !ok {
			t.Fatalf("%s: present under pathclone but not default", fn)
		}
		if len(spec.Clusters[0]) != len(baseSpec.Clusters[0]) {
			t.Errorf("%s: pathclone cluster has %d blocks, default %d — not a permutation of the same hot set",
				fn, len(spec.Clusters[0]), len(baseSpec.Clusters[0]))
		}
		if spec.Clusters[0][0] != baseSpec.Clusters[0][0] {
			t.Errorf("%s: pathclone entry block %d != default entry %d", fn, spec.Clusters[0][0], baseSpec.Clusters[0][0])
		}
	}
}

// TestKeepBlockOrderPolicy: the call-chain-first policy emits hot blocks
// in original map order, entry first.
func TestKeepBlockOrderPolicy(t *testing.T) {
	res, err := Analyze(held(synthMap()), Samples(synthProfile(50)), Config{Policy: Policy{KeepBlockOrder: true}})
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := res.Directives["foo"]
	if !ok {
		t.Fatalf("no directive for foo: %+v", res.Directives)
	}
	c := spec.Clusters[0]
	if c[0] != 0 {
		t.Fatalf("entry not first: %v", c)
	}
	for i := 1; i < len(c); i++ {
		if c[i] <= c[i-1] {
			t.Fatalf("blocks not in original map order: %v", c)
		}
	}
}
