package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/layoutfile"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

// fleetFixture is tiny's metadata binary and a profile merged from a
// two-host fleet run of it.
func fleetFixture(t *testing.T) (*objfile.Binary, *profile.Profile) {
	t.Helper()
	prog, err := workload.Generate(workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := core.BuildWithMetadata(prog.Core, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged, _, _, err := core.CollectFleetProfile(meta.Binary, core.RunSpec{MaxInsts: 3_000_000, LBRPeriod: 211},
		core.FleetOptions{Hosts: 2, Shards: 1, WorkersPerShard: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	return meta.Binary, merged
}

// rendered is a result's cc_prof and ld_prof bytes.
func rendered(r *wpa.Result) []byte {
	var buf bytes.Buffer
	layoutfile.WriteDirectives(&buf, r.Directives)
	layoutfile.WriteOrder(&buf, r.Order)
	return buf.Bytes()
}

// TestAnalyzeStreamedMatchesWireStream: AnalyzeStreamed feeds a profile
// already in memory to the analyzer without encoding and decoding it, and
// returns what a Wire source over the profile's AppendWire bytes returns —
// the Result, its rendered cc_prof/ld_prof bytes and its Stats without the
// walls — intra- and inter-procedurally, at one and two workers, with no
// cache, on a cold epoch cache and on the warm one. The stats differ only
// by residency: the fleet path holds the merged profile (its SizeBytes),
// the wire path one sample. A profile of another build is refused with the
// same error on both paths.
func TestAnalyzeStreamedMatchesWireStream(t *testing.T) {
	bin, merged := fleetFixture(t)
	loadMap := func() (*bbaddrmap.Map, error) { return bbaddrmap.Decode(bin.BBAddrMap) }
	// overWire analyzes prof's wire bytes with the configuration
	// AnalyzeStreamed derives from opts.
	overWire := func(prof *profile.Profile, opts core.Options) (*wpa.Result, error) {
		cfg := opts.WPA
		cfg.InterProc = cfg.InterProc || opts.InterProc
		cfg.BuildID = bin.BuildID
		return wpa.Analyze(loadMap, wpa.Wire(bytes.NewReader(prof.AppendWire(nil))), cfg)
	}
	withoutWalls := func(st wpa.Stats) wpa.Stats {
		st.AggregateWall, st.MergeWall, st.LayoutWall, st.AnalysisSeconds = 0, 0, 0, 0
		return st
	}
	for _, interProc := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			// One cache per path; the calls go none, cold, warm.
			caches := [2]*buildsys.Cache{buildsys.NewCache(), buildsys.NewCache()}
			for _, cache := range []string{"none", "cold", "warm"} {
				name := fmt.Sprintf("interProc=%v/workers=%d/cache=%s", interProc, workers, cache)
				opts := func(c *buildsys.Cache) core.Options {
					o := core.Options{InterProc: interProc}
					o.WPA.Workers = workers
					if cache != "none" {
						o.WPA.Cache, o.WPA.ProfileEpoch = c, "epoch-1"
					}
					return o
				}
				//lint:ignore SA1019 the fleet entry is what this test holds to a Wire source
				got, err := core.AnalyzeStreamed(bin, merged, opts(caches[0]))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := overWire(merged, opts(caches[1]))
				if err != nil {
					t.Fatalf("%s: over the wire: %v", name, err)
				}
				if len(got.Directives) < 5 || got.Stats.Samples != len(merged.Samples) {
					t.Fatalf("%s: %d hot functions from %d of %d samples", name, len(got.Directives), got.Stats.Samples, len(merged.Samples))
				}
				if hit := cache == "warm"; got.Stats.AggregateCacheHit != hit || want.Stats.AggregateCacheHit != hit {
					t.Fatalf("%s: aggregate cache hit %v, over the wire %v, want %v", name, got.Stats.AggregateCacheHit, want.Stats.AggregateCacheHit, hit)
				}
				if !bytes.Equal(rendered(got), rendered(want)) || !reflect.DeepEqual(got.Directives, want.Directives) || !reflect.DeepEqual(got.Order, want.Order) {
					t.Errorf("%s: the layout differs from the one analyzed over the wire", name)
				}
				if res := merged.SizeBytes(); got.Stats.ProfileBytes != res || got.Stats.ModeledBytes != max(res, want.Stats.ModeledBytes) {
					t.Errorf("%s: profile bytes %d, modeled %d; want the merged profile's %d, modeled at least the wire path's %d",
						name, got.Stats.ProfileBytes, got.Stats.ModeledBytes, res, want.Stats.ModeledBytes)
				}
				g, w := withoutWalls(got.Stats), withoutWalls(want.Stats)
				g.ProfileBytes, g.ModeledBytes = w.ProfileBytes, w.ModeledBytes
				if !reflect.DeepEqual(g, w) {
					t.Errorf("%s: stats\n%+v\nover the wire\n%+v", name, g, w)
				}
			}
		}
	}

	other := *merged
	other.BuildID = "0123456789abcdef0123"
	//lint:ignore SA1019 the fleet entry is what this test holds to a Wire source
	_, gotErr := core.AnalyzeStreamed(bin, &other, core.Options{})
	_, wantErr := overWire(&other, core.Options{})
	if gotErr == nil || !strings.Contains(gotErr.Error(), "does not match binary") || gotErr.Error() != fmt.Sprint(wantErr) {
		t.Errorf("another build's profile: err = %v, over the wire %v", gotErr, wantErr)
	}
}

// TestFleetAnalysisClonesPaths: the fleet path analyzes the merged profile
// as an in-memory source, so path cloning works there as it does in
// Analyze — AnalyzeStreamed with PathClone renders the cc_prof/ld_prof
// bytes of Analyze with PathClone, which differ from the run without it.
// The same profile over the wire holds no raw samples to rebuild hot paths
// from, and without Config.HotPaths it is refused with an error that names
// them.
func TestFleetAnalysisClonesPaths(t *testing.T) {
	bin, merged := fleetFixture(t)
	var clone, plain core.Options
	clone.WPA.PathClone = true
	//lint:ignore SA1019 the fleet entry is what this test holds to Analyze
	fleet, err := core.AnalyzeStreamed(bin, merged, clone)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Analyze(bin, merged, clone)
	if err != nil {
		t.Fatal(err)
	}
	without, err := core.Analyze(bin, merged, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rendered(fleet), rendered(want)) {
		t.Error("fleet analysis with PathClone differs from Analyze with PathClone")
	}
	if bytes.Equal(rendered(fleet), rendered(without)) {
		t.Error("fleet analysis with PathClone lays out as without it: the hot paths were not cloned")
	}

	loadMap := func() (*bbaddrmap.Map, error) { return bbaddrmap.Decode(bin.BBAddrMap) }
	_, err = wpa.Analyze(loadMap, wpa.Wire(bytes.NewReader(merged.AppendWire(nil))), wpa.Config{Policy: wpa.Policy{PathClone: true}, BuildID: bin.BuildID})
	if err == nil || !strings.Contains(err.Error(), "HotPaths") {
		t.Errorf("wire source with PathClone and no HotPaths: got %v, want an error naming the missing paths", err)
	}
}
