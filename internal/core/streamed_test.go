package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/layoutfile"
	"propeller/internal/profile"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

// TestAnalyzeStreamedMatchesWireStream: AnalyzeStreamed feeds a profile
// already in memory to the analyzer without encoding and decoding it, and
// returns what wpa.AnalyzeStream returns over the profile's AppendWire
// bytes — the Result, its rendered cc_prof/ld_prof bytes and its Stats
// without the walls — intra- and inter-procedurally, at one and two
// workers, with no cache, on a cold epoch cache and on the warm one. A
// profile of another build is refused with the same error on both paths.
func TestAnalyzeStreamedMatchesWireStream(t *testing.T) {
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
	overWire := func(prof *profile.Profile, opts core.Options) (*wpa.Result, error) {
		m, cfg, err := core.WPAInputs(meta.Binary, opts)
		if err != nil {
			return nil, err
		}
		return wpa.AnalyzeStream(m, bytes.NewReader(prof.AppendWire(nil)), cfg)
	}
	rendered := func(r *wpa.Result) []byte {
		var buf bytes.Buffer
		layoutfile.WriteDirectives(&buf, r.Directives)
		layoutfile.WriteOrder(&buf, r.Order)
		return buf.Bytes()
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
				got, err := core.AnalyzeStreamed(meta.Binary, merged, opts(caches[0]))
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
				if g, w := withoutWalls(got.Stats), withoutWalls(want.Stats); !reflect.DeepEqual(g, w) {
					t.Errorf("%s: stats\n%+v\nover the wire\n%+v", name, g, w)
				}
			}
		}
	}

	other := *merged
	other.BuildID = "0123456789abcdef0123"
	_, gotErr := core.AnalyzeStreamed(meta.Binary, &other, core.Options{})
	_, wantErr := overWire(&other, core.Options{})
	if gotErr == nil || !strings.Contains(gotErr.Error(), "does not match binary") || gotErr.Error() != fmt.Sprint(wantErr) {
		t.Errorf("another build's profile: err = %v, over the wire %v", gotErr, wantErr)
	}
}
