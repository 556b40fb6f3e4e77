// Integration coverage for the two-tier shared action cache (§2.1): a
// warm rebuild whose artifacts only survive in the remote tier runs no
// codegen but pays modeled fetch latency — cheap, not free — sitting
// strictly between a cold build and a warm local-tier rebuild.
package integration_test

import (
	"testing"

	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

func TestRemoteTierWarmBuildCheapButNotFree(t *testing.T) {
	prog, err := workload.Generate(workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	train := core.RunSpec{MaxInsts: 20_000_000, LBRPeriod: 211}

	// Arm 1: unbounded local caches (the PR-1 configuration).
	local := core.Options{
		IRCache:  buildsys.NewCache(),
		ObjCache: buildsys.NewCache(),
	}
	coldLocal, err := core.Optimize(prog.Core, train, local)
	if err != nil {
		t.Fatalf("cold local build: %v", err)
	}
	warmLocal, err := core.Optimize(prog.Core, train, local)
	if err != nil {
		t.Fatalf("warm local build: %v", err)
	}

	// Arm 2: a tiny local tier over a shared remote — every artifact is
	// evicted locally and survives only across the network.
	remote := buildsys.NewRemote()
	tiered := core.Options{
		IRCache:  buildsys.NewTieredCache(1<<12, remote),
		ObjCache: buildsys.NewTieredCache(1<<12, remote),
	}
	coldRemote, err := core.Optimize(prog.Core, train, tiered)
	if err != nil {
		t.Fatalf("cold tiered build: %v", err)
	}
	warmRemote, err := core.Optimize(prog.Core, train, tiered)
	if err != nil {
		t.Fatalf("warm tiered build: %v", err)
	}

	// All four configurations build the same binary.
	want := coldLocal.Optimized.Binary
	for name, res := range map[string]*core.Result{
		"warm-local": warmLocal, "cold-remote": coldRemote, "warm-remote": warmRemote,
	} {
		if got := res.Optimized.Binary; got.Entry != want.Entry || len(got.Text) != len(want.Text) {
			t.Errorf("%s produced a different optimized binary", name)
		}
	}

	// Warm local tier: zero Phase-2 actions, zero backend cost.
	if warmLocal.Metadata.Exec.Actions != 0 || warmLocal.Metadata.Backends != 0 {
		t.Errorf("warm local Phase 2 not free: %d actions, %.3fs",
			warmLocal.Metadata.Exec.Actions, warmLocal.Metadata.Backends)
	}
	// Warm remote tier: no codegen — every scheduled action is a modeled
	// cache fetch — but the fetches cost real modeled time.
	if warmRemote.Metadata.Exec.Actions == 0 {
		t.Fatal("warm remote build scheduled nothing; fetches unmodeled")
	}
	if warmRemote.Metadata.Backends <= 0 {
		t.Error("warm remote Phase 2 modeled as free; fetch latency lost")
	}
	if warmRemote.Metadata.Backends >= coldRemote.Metadata.Backends {
		t.Errorf("warm remote backends %.3fs not cheaper than cold %.3fs",
			warmRemote.Metadata.Backends, coldRemote.Metadata.Backends)
	}

	// The object cache saw eviction pressure and remote traffic.
	st := tiered.ObjCache.Stats()
	if st.Evictions == 0 || st.RemoteFetches == 0 || st.RemoteBytes == 0 {
		t.Errorf("tiered object cache never exercised its tiers: %+v", st)
	}
	if st.Bytes > 1<<12 {
		t.Errorf("local tier over its %d-byte budget: %d", 1<<12, st.Bytes)
	}
}

// TestRemoteTierRelinkFetchesColdObjects pins the Phase-4 side: with a
// tiered cache the relink's cold objects arrive as fetch actions, not
// codegen actions.
func TestRemoteTierRelinkFetchesColdObjects(t *testing.T) {
	prog, err := workload.Generate(workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	remote := buildsys.NewRemote()
	opts := core.Options{
		IRCache:  buildsys.NewTieredCache(1<<12, remote),
		ObjCache: buildsys.NewTieredCache(1<<12, remote),
	}
	res, err := core.Optimize(prog.Core, core.RunSpec{MaxInsts: 20_000_000, LBRPeriod: 211}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ColdModules == 0 {
		t.Fatal("workload has no cold modules; nothing to fetch")
	}
	// Phase 4 schedules hot codegen plus one fetch per remote-served cold
	// object; its action count must exceed the hot-module count alone.
	if res.Optimized.Exec.Actions <= res.HotModules {
		t.Errorf("relink ran %d actions for %d hot modules; cold fetches unscheduled",
			res.Optimized.Exec.Actions, res.HotModules)
	}
	if len(res.Optimized.Binary.Text) == 0 {
		t.Error("relinked binary has no text")
	}

	// Exactly: a warm relink of the same layout runs no codegen, so its
	// batch is one fetch per object the remote tier served and nothing
	// else. (The batch's action names and order are not visible from
	// here; core's TestWarmRelinkReusesHotObjects/tiered pins them.)
	before := opts.ObjCache.Stats().RemoteFetches
	warm, _, _, err := core.Relink(prog.Core, res.Metadata.IRKeys,
		&wpa.Result{Directives: res.Directives, Order: res.Order}, opts)
	if err != nil {
		t.Fatal(err)
	}
	fetched := opts.ObjCache.Stats().RemoteFetches - before
	if warm.HotReused != res.HotModules || fetched == 0 || int64(warm.Exec.Actions) != fetched {
		t.Errorf("warm relink: %d actions for %d remote fetches, %d of %d hot modules reused",
			warm.Exec.Actions, fetched, warm.HotReused, res.HotModules)
	}
	if warm.Binary.BuildID != res.Optimized.Binary.BuildID {
		t.Error("warm relink changed the binary")
	}
}
