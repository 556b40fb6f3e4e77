package core

import (
	"slices"
	"strings"
	"testing"

	"propeller/internal/buildsys"
	"propeller/internal/layoutfile"
	"propeller/internal/wpa"
)

// A second release with unchanged sources must reuse every Phase-2 object
// from the cache (the >90% action-cache hit rates of §2.1), making the
// warm build's backend phase nearly free.
func TestIncrementalRebuildHitsCache(t *testing.T) {
	p := multiModuleProgram()
	opts := Options{
		IRCache:  buildsys.NewCache(),
		ObjCache: buildsys.NewCache(),
	}
	train := RunSpec{MaxInsts: 20_000_000, LBRPeriod: 211}

	cold, err := Optimize(p, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Optimize(p, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same outputs.
	if cold.Optimized.Binary.Entry != warm.Optimized.Binary.Entry ||
		len(cold.Optimized.Binary.Text) != len(warm.Optimized.Binary.Text) {
		t.Error("warm rebuild produced a different binary")
	}
	// The warm Phase-2 backends ran no codegen actions.
	if warm.Metadata.Exec.Actions != 0 {
		t.Errorf("warm build ran %d codegen actions, want 0", warm.Metadata.Exec.Actions)
	}
	if cold.Metadata.Exec.Actions == 0 {
		t.Error("cold build ran no actions")
	}
	if warm.Metadata.Backends >= cold.Metadata.Backends {
		t.Errorf("warm backends cost %.2f not below cold %.2f",
			warm.Metadata.Backends, cold.Metadata.Backends)
	}
	if st := opts.ObjCache.Stats(); st.Hits == 0 {
		t.Error("no object cache hits on the warm build")
	}
	mRes := runBinary(t, warm.Optimized)
	cRes := runBinary(t, cold.Optimized)
	if mRes.Exit != cRes.Exit {
		t.Error("warm rebuild changed semantics")
	}
}

// The optimized binary remains strippable (§5.8: BOLTed binaries do not).
func TestOptimizedBinaryStrippable(t *testing.T) {
	p := multiModuleProgram()
	res, err := Optimize(p, RunSpec{MaxInsts: 20_000_000, LBRPeriod: 211}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := runBinary(t, res.Optimized).Exit
	stripped := res.Optimized.Binary.Clone()
	stripped.Strip()
	if stripped.BBAddrMap != nil || stripped.RelaBytes != 0 {
		t.Error("Strip left metadata")
	}
	got := runBinary(t, &BuildResult{Binary: stripped}).Exit
	if got != want {
		t.Errorf("stripped binary behaves differently: %d vs %d", got, want)
	}
}

// A warm relink of the same layout must serve every hot module's Phase-4
// object from the content-keyed relink cache — no codegen re-runs — and
// reproduce the optimized binary byte-identically (same content-hash
// build ID). Each row also pins the batches the two phases hand the list
// scheduler: fetches first, then codegen, each in module order. The
// tiered row's one-byte local tier keeps nothing resident, so every cache
// hit is a remote fetch and the expected batches are fully determined.
func TestWarmRelinkReusesHotObjects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		caches func() (ir, obj *buildsys.Cache)
		remote bool
	}{
		{"unbounded", func() (ir, obj *buildsys.Cache) { return buildsys.NewCache(), buildsys.NewCache() }, false},
		{"tiered", func() (ir, obj *buildsys.Cache) {
			r := buildsys.NewRemote()
			return buildsys.NewTieredCache(1, r), buildsys.NewTieredCache(1, r)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := multiModuleProgram()
			var opts Options
			opts.IRCache, opts.ObjCache = tc.caches()
			train := RunSpec{MaxInsts: 20_000_000, LBRPeriod: 211}

			cold, err := Optimize(p, train, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Optimized.HotReused != 0 {
				t.Errorf("cold relink reported %d reused hot objects", cold.Optimized.HotReused)
			}
			if cold.HotModules == 0 || cold.ColdModules == 0 {
				t.Fatalf("workload has %d hot and %d cold modules; test is vacuous", cold.HotModules, cold.ColdModules)
			}
			warm, err := Optimize(p, train, opts)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Optimized.HotReused != warm.HotModules {
				t.Errorf("warm relink reused %d of %d hot modules",
					warm.Optimized.HotReused, warm.HotModules)
			}
			if warm.Optimized.Binary.BuildID != cold.Optimized.Binary.BuildID {
				t.Errorf("warm relink changed the binary: %s vs %s",
					warm.Optimized.Binary.BuildID, cold.Optimized.Binary.BuildID)
			}
			// The reused path must be cheaper on the modeled backend makespan.
			if warm.Optimized.Exec.Makespan >= cold.Optimized.Exec.Makespan {
				t.Errorf("warm Phase-4 makespan %.3f not below cold %.3f",
					warm.Optimized.Exec.Makespan, cold.Optimized.Exec.Makespan)
			}

			// names lists prefix+module, in module order, for the modules
			// whose hotness keep accepts.
			hot := hotModules(p, cold.Directives)
			names := func(prefix string, keep func(hot bool) bool) []string {
				var out []string
				for i, m := range p.Modules {
					if keep(hot[i]) {
						out = append(out, prefix+m.Name)
					}
				}
				return out
			}
			all := func(bool) bool { return true }
			isHot := func(hot bool) bool { return hot }
			isCold := func(hot bool) bool { return !hot }
			var fetchCold, fetchAll []string
			if tc.remote {
				fetchCold, fetchAll = names("fetch:", isCold), names("fetch:", all)
			}
			for _, b := range []struct {
				phase     string
				got, want []string
			}{
				{"cold Phase 2", cold.Metadata.batch, names("codegen:", all)},
				{"cold Phase 4", cold.Optimized.batch, append(fetchCold, names("codegen-list:", isHot)...)},
				{"warm Phase 2", warm.Metadata.batch, fetchAll},
				{"warm Phase 4", warm.Optimized.batch, fetchAll},
			} {
				if !slices.Equal(b.got, b.want) {
					t.Errorf("%s submitted %v, want %v", b.phase, b.got, b.want)
				}
			}
		})
	}
}

// A cached object that does not decode fails the build and names the
// module, on every key the one object path reads: the PM build's
// obj-labels entry, a cold module's obj-labels entry at relink, and a hot
// module's obj-list entry at a warm relink.
func TestCorruptCachedObjectFailsBuild(t *testing.T) {
	p := multiModuleProgram()
	train := RunSpec{MaxInsts: 20_000_000, LBRPeriod: 211}
	for _, tc := range []struct {
		name string
		// poison returns the module whose cache entry it corrupted and
		// the build to run against the poisoned cache.
		poison func(opts Options, res *Result) (module string, build func() error)
	}{
		{"pm obj-labels", func(opts Options, res *Result) (string, func() error) {
			opts.ObjCache.Put(objCacheKey(res.Metadata.IRKeys[1]), []byte("rot"))
			return p.Modules[1].Name, func() error {
				_, err := BuildWithMetadata(p, opts)
				return err
			}
		}},
		{"cold obj-labels", func(opts Options, res *Result) (string, func() error) {
			i := slices.Index(hotModules(p, res.Directives), false)
			opts.ObjCache.Put(objCacheKey(res.Metadata.IRKeys[i]), []byte("rot"))
			return p.Modules[i].Name, relinkOf(p, res, opts)
		}},
		{"hot obj-list", func(opts Options, res *Result) (string, func() error) {
			i := slices.Index(hotModules(p, res.Directives), true)
			key := listObjCacheKey(res.Metadata.IRKeys[i], p.Modules[i], res.Directives, opts)
			if !opts.ObjCache.Contains(key) {
				t.Fatal("cold relink left no obj-list entry to poison")
			}
			opts.ObjCache.Put(key, []byte("rot"))
			return p.Modules[i].Name, relinkOf(p, res, opts)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{IRCache: buildsys.NewCache(), ObjCache: buildsys.NewCache()}
			res, err := Optimize(p, train, opts)
			if err != nil {
				t.Fatal(err)
			}
			module, build := tc.poison(opts, res)
			err = build()
			if want := "corrupt cached object for " + module; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("err = %v, want it to contain %q", err, want)
			}
		})
	}
}

// hotModules reports, per module, whether any of its functions has a
// layout directive.
func hotModules(p *Program, dirs layoutfile.Directives) []bool {
	hot := make([]bool, len(p.Modules))
	for i, m := range p.Modules {
		for _, f := range m.Funcs {
			if _, ok := dirs[f.Name]; ok {
				hot[i] = true
			}
		}
	}
	return hot
}

func relinkOf(p *Program, res *Result, opts Options) func() error {
	return func() error {
		_, _, _, err := Relink(p, res.Metadata.IRKeys, &wpa.Result{Directives: res.Directives, Order: res.Order}, opts)
		return err
	}
}
