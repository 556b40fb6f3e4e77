package fleetprof_test

import (
	"slices"
	"sort"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/core"
	"propeller/internal/fleetprof"
	"propeller/internal/profile"
	"propeller/internal/workload"
)

// testLookup maps two functions at fixed addresses: f at [0x1000,0x1100),
// g at [0x2000,0x2100).
func testLookup() *bbaddrmap.Lookup {
	return bbaddrmap.NewLookup(&bbaddrmap.Map{Funcs: []bbaddrmap.FuncEntry{
		{Name: "f", Addr: 0x1000, Blocks: []bbaddrmap.BlockEntry{{ID: 0, Offset: 0, Size: 0x100}}},
		{Name: "g", Addr: 0x2000, Blocks: []bbaddrmap.BlockEntry{{ID: 0, Offset: 0, Size: 0x100}}},
	}})
}

// addrProf is n samples, each one record (a, a+4) per address a.
func addrProf(n int, addrs ...uint64) *profile.Profile {
	p := &profile.Profile{BuildID: "b", Period: 211}
	for i := 0; i < n; i++ {
		recs := make([]profile.Branch, 0, len(addrs))
		for _, a := range addrs {
			recs = append(recs, profile.Branch{From: a, To: a + 4})
		}
		p.Samples = append(p.Samples, profile.Sample{Records: recs})
	}
	return p
}

// referenceHotFuncs is HotFuncs as it was before the memoized function
// set: an uncached lookup of both addresses of every record, and a map
// keyed by the resolved name.
func referenceHotFuncs(p *profile.Profile, lk *bbaddrmap.Lookup) []string {
	if lk == nil || p == nil {
		return nil
	}
	set := map[string]bool{}
	for _, smp := range p.Samples {
		for _, r := range smp.Records {
			for _, addr := range []uint64{r.From, r.To} {
				if bi := lk.BlockAt(addr); bi != bbaddrmap.NoBlock {
					set[lk.FuncNames()[lk.Blocks()[bi].Fn]] = true
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for fn := range set {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// fleetProfile builds spec's metadata binary and collects a two-host fleet
// profile of it: the merged profile and the lookup a generation scores.
func fleetProfile(tb testing.TB, spec workload.Spec, insts uint64) (*profile.Profile, *bbaddrmap.Lookup) {
	tb.Helper()
	prog, err := workload.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	pm, err := core.BuildWithMetadata(prog.Core, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	merged, _, _, err := core.CollectFleetProfile(pm.Binary, core.RunSpec{MaxInsts: insts, LBRPeriod: 211},
		core.FleetOptions{Hosts: 2, Shards: 1, WorkersPerShard: 1}, false)
	if err != nil {
		tb.Fatal(err)
	}
	lk, err := fleetprof.AddrMapLookup(pm.Binary.BBAddrMap)
	if err != nil {
		tb.Fatal(err)
	}
	return merged, lk
}

// TestHotFuncsMatchesReference: the memoized set names exactly the
// functions the per-record Resolve loop did — on a real fleet profile,
// where returns land mid-block and calls leave the binary's hot code, and
// on addresses around a small map's edges.
func TestHotFuncsMatchesReference(t *testing.T) {
	merged, lk := fleetProfile(t, workload.Tiny(), 3_000_000)
	got, want := fleetprof.HotFuncs(merged, lk), referenceHotFuncs(merged, lk)
	if len(want) < 5 {
		t.Fatalf("only %d hot functions in the fleet profile: %v", len(want), want)
	}
	if !slices.Equal(got, want) {
		t.Errorf("fleet profile: HotFuncs = %v, reference %v", got, want)
	}

	edges := addrProf(2, 0x0FFC, 0x10FC, 0x10FF, 0x1100, 0x1FFC, 0x20FC, 0x2100, 0x9000)
	if got, want := fleetprof.HotFuncs(edges, testLookup()), referenceHotFuncs(edges, testLookup()); !slices.Equal(got, want) {
		t.Errorf("map edges: HotFuncs = %v, reference %v", got, want)
	}
	// Address 0, which the address set holds apart from its empty slots,
	// and enough distinct addresses to grow the set several times.
	zero := bbaddrmap.NewLookup(&bbaddrmap.Map{Funcs: []bbaddrmap.FuncEntry{
		{Name: "at0", Addr: 0, Blocks: []bbaddrmap.BlockEntry{{ID: 0, Offset: 0, Size: 4}}}, // only address 0 lands here
		{Name: "f", Addr: 0x1000, Blocks: []bbaddrmap.BlockEntry{{ID: 0, Offset: 0, Size: 0x100}}},
	}})
	many := []uint64{0}
	for a := uint64(0xF00); a < 0x4000; a += 3 {
		many = append(many, a)
	}
	if got, want := fleetprof.HotFuncs(addrProf(2, many...), zero), referenceHotFuncs(addrProf(2, many...), zero); len(want) != 2 || !slices.Equal(got, want) {
		t.Errorf("address 0 and %d distinct addresses: HotFuncs = %v, reference %v", len(many), got, want)
	}
	if got := fleetprof.HotFuncs(addrProf(1, 0x9000), testLookup()); got == nil || len(got) != 0 {
		t.Errorf("no covered address: HotFuncs = %#v, want empty and non-nil (nil means no map)", got)
	}
	if fleetprof.HotFuncs(merged, nil) != nil || fleetprof.HotFuncs(nil, lk) != nil {
		t.Error("nil lookup or profile must resolve to nil")
	}
}

// BenchmarkHotFuncs times admission scoring's per-record half alone, at
// the size the benchmark's fleet-generation workload scores once per
// generation: the MySQL shape at 2500 requests, two hosts' merged profile.
//
//	go test ./internal/fleetprof -run '^$' -bench HotFuncs -benchtime 20x
func BenchmarkHotFuncs(b *testing.B) {
	spec := workload.MySQL()
	spec.Requests = 2500
	merged, lk := fleetProfile(b, spec, 20_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(fleetprof.HotFuncs(merged, lk)) == 0 {
			b.Fatal("no hot functions")
		}
	}
}
