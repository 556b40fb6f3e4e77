package wpa

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/profile"
)

// feedIn returns a During run that hands prof over in batches of the given
// size, counts the calls it got and says whether it was given an add at
// all.
func feedIn(prof *profile.Profile, batch int, calls *int, fed *bool) func(add func([]profile.Sample)) (*profile.Profile, error) {
	return func(add func([]profile.Sample)) (*profile.Profile, error) {
		*calls++
		*fed = add != nil
		if add != nil {
			inBatches(prof.Samples, batch, add)
		}
		return prof, nil
	}
}

// chunkReader yields its bytes n at a time.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	k := copy(p, r.data[:min(r.n, len(r.data))])
	r.data = r.data[k:]
	return k, nil
}

// wireAggregate is the aggregate Analyze builds from a Wire source over r.
func wireAggregate(m *bbaddrmap.Map, r io.Reader, cfg Config) (*Aggregate, error) {
	src, lk := Wire(r), bbaddrmap.NewLookup(m)
	if err := src.open(); err != nil {
		return nil, err
	}
	return cfg.feed(&src, func() *bbaddrmap.Lookup { return lk })
}

// waitForGoroutines fails the test unless the goroutine count comes back
// down to base: a worker that has signalled its WaitGroup is still counted
// until it has finished exiting.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the call: an aggregation worker outlived it", runtime.NumGoroutine(), base)
		}
	}
}

// dcfgBytes is the DCFG half of Stats.ModeledBytes.
func dcfgBytes(st Stats) int64 {
	return int64(st.DCFGNodes)*48 + int64(st.DCFGEdges)*40 + int64(st.DCFGFuncs)*96
}

// TestSourcesAgree is the agreement table over the source kinds that are
// not live runs: the same profile, in memory, over the wire, or as a
// prebuilt aggregate with its hot paths supplied, yields the directives,
// the order and the rendered bytes of a plain in-memory analysis, and its
// counted stats, whatever the bytes per read of a reader, in every layout
// mode, at any worker count, with no cache, on a cold epoch cache and on
// the warm one. The stats differ only by the walls, the worker counts and
// each kind's residency; on the warm pass the aggregate comes from the
// cache (not for a Prebuilt source, which never looks it up).
func TestSourcesAgree(t *testing.T) {
	requireSourcesAgree(t, func(kind string) bool { return !strings.HasPrefix(kind, "during/") })
}

// TestAnalyzeDuringMatchesAnalyze: a profile analyzed while it arrives, as
// a During source in batches of any size, at any worker count, yields the
// artifacts and the counted stats of an analysis of the finished profile —
// in every layout mode, with path cloning (whose paths come from the
// complete profile), with no cache, and through the epoch cache, where a
// warm aggregate leaves the run, still called once, with no add to call.
func TestAnalyzeDuringMatchesAnalyze(t *testing.T) {
	requireSourcesAgree(t, func(kind string) bool { return strings.HasPrefix(kind, "during/") })
}

// requireSourcesAgree runs the agreement table over the source kinds that
// pick admits, by name: "samples", "prebuilt", "wire/<bytes per read>" and
// "during/<samples per batch>".
func requireSourcesAgree(t *testing.T, pick func(kind string) bool) {
	rng := rand.New(rand.NewSource(2323))
	for trial := 0; trial < 4; trial++ {
		m := randMap(rng, 3+rng.Intn(20))
		prof := randProfile(rng, m, 50+rng.Intn(600))
		prof.BuildID = "pm-build"
		wire := prof.AppendWire(nil)
		paths, err := ReconstructPaths(m, prof)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := BuildAggregate(m, prof, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			cfg  Config
		}{{"intra", Config{}}, {"inter", Config{InterProc: true}}, {"pathclone", Config{Policy: Policy{PathClone: true}}}} {
			base := mode.cfg
			base.BuildID = prof.BuildID
			want, err := Analyze(held(m), Samples(prof), base)
			if err != nil {
				t.Fatal(err)
			}
			type kind struct {
				name      string
				src       func() Source
				residency int64
				calls     *int // a live run's calls, and whether it was fed
				fed       *bool
			}
			kinds := []kind{
				{name: "samples", src: func() Source { return Samples(prof) }, residency: prof.SizeBytes()},
				{name: "prebuilt", src: func() Source { return Prebuilt(agg) }, residency: prof.SizeBytes()},
			}
			for _, batch := range []int{1, 7, 2048} {
				kinds = append(kinds, kind{name: fmt.Sprintf("wire/%d", batch), residency: streamSampleBytes,
					src: func() Source { return Wire(&chunkReader{wire, batch}) }})
				k := kind{name: fmt.Sprintf("during/%d", batch), residency: prof.SizeBytes(), calls: new(int), fed: new(bool)}
				k.src = func() Source { return During(prof.BuildID, feedIn(prof, batch, k.calls, k.fed)) }
				kinds = append(kinds, k)
			}
			for _, k := range kinds {
				if !pick(k.name) {
					continue
				}
				for _, w := range []int{1, 2, 8} {
					cache := buildsys.NewCache()
					for _, pass := range []string{"none", "cold", "warm"} {
						label := fmt.Sprintf("trial %d, %s, %s, workers %d, cache %s", trial, mode.name, k.name, w, pass)
						cfg := base
						cfg.Workers = w
						if pass != "none" {
							cfg.Cache, cfg.ProfileEpoch = cache, "e1"
						}
						if k.calls != nil {
							*k.calls = 0
						}
						src := k.src()
						if !src.rawSamples() && cfg.NeedsPaths() {
							cfg.HotPaths = paths
						}
						got, err := Analyze(held(m), src, cfg)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						requireSameArtifacts(t, want, got, label)
						if !reflect.DeepEqual(got.Directives, want.Directives) || !reflect.DeepEqual(got.Order, want.Order) {
							t.Fatalf("%s: directives or order differ", label)
						}
						warm := pass == "warm"
						if hit := warm && k.name != "prebuilt"; got.Stats.AggregateCacheHit != hit || got.Stats.GlobalCacheHit != warm {
							t.Fatalf("%s: aggregate cache hit %t, global layout hit %t", label, got.Stats.AggregateCacheHit, got.Stats.GlobalCacheHit)
						}
						if k.calls != nil && (*k.calls != 1 || *k.fed != !(warm && k.name != "prebuilt")) {
							t.Fatalf("%s: run called %d times, given an add: %t", label, *k.calls, *k.fed)
						}
						if got.Stats.ProfileBytes != k.residency || got.Stats.ModeledBytes != max(k.residency, dcfgBytes(got.Stats)) {
							t.Fatalf("%s: profile bytes %d, modeled %d; want residency %d", label, got.Stats.ProfileBytes, got.Stats.ModeledBytes, k.residency)
						}
						// A global-layout hit replays the artifacts without the
						// per-layout stats.
						gs, ws := statsComparable(got.Stats), statsComparable(want.Stats)
						gs.ProfileBytes, gs.ModeledBytes = ws.ProfileBytes, ws.ModeledBytes
						gs.AggregateCacheHit, gs.GlobalCacheHit, gs.FuncLayoutHits, gs.FuncLayoutMisses = false, false, 0, 0
						if warm {
							gs.RelaidFuncs, gs.LayoutShards, gs.LayoutShardNodes, gs.LayoutEffort = ws.RelaidFuncs, ws.LayoutShards, ws.LayoutShardNodes, ws.LayoutEffort
						}
						if !reflect.DeepEqual(gs, ws) {
							t.Fatalf("%s: stats diverged\ngot  %+v\nwant %+v", label, gs, ws)
						}
					}
				}
			}
		}
	}
}

// TestForeignBuildIDRefusedWarmOrCold: a profile of another build is
// refused with checkBuildID's one message by every kind that carries a
// build ID, on a warm epoch cache as on no cache — before the cache is
// consulted, so a live run is never started — and IgnoreBuildID admits it
// from the warm cache.
func TestForeignBuildIDRefusedWarmOrCold(t *testing.T) {
	m, prof := synthMap(), synthProfile(50)
	prof.BuildID = "the-binary"
	foreign := *prof
	foreign.BuildID = "another-binary"
	wire := foreign.AppendWire(nil)
	cache := buildsys.NewCache()
	for _, ignore := range []bool{false, true} {
		for _, pass := range []string{"none", "warm"} {
			cfg := Config{BuildID: prof.BuildID, IgnoreBuildID: ignore}
			if pass == "warm" {
				cfg.Cache, cfg.ProfileEpoch = cache, "e1"
				if _, err := Analyze(held(m), Samples(prof), cfg); err != nil {
					t.Fatal(err)
				}
			}
			var calls int
			var fed bool
			for name, src := range map[string]Source{
				"samples": Samples(&foreign),
				"wire":    Wire(bytes.NewReader(wire)),
				"during":  During(foreign.BuildID, feedIn(&foreign, 10, &calls, &fed)),
			} {
				label := fmt.Sprintf("%s, cache %s, IgnoreBuildID %t", name, pass, ignore)
				res, err := Analyze(held(m), src, cfg)
				if ignore {
					if err != nil || res.Stats.AggregateCacheHit != (pass == "warm") {
						t.Errorf("%s: got %v, want it admitted", label, err)
					}
					continue
				}
				if want := cfg.checkBuildID(foreign.BuildID); err == nil || err.Error() != want.Error() {
					t.Errorf("%s: got %v, want %v", label, err, want)
				}
			}
			if !ignore && calls != 0 {
				t.Errorf("cache %s: a refused live run was started %d times", pass, calls)
			}
		}
	}
}

// TestSourcesWithoutSamplesRefusePathCloning: a Wire or Prebuilt source
// cannot rebuild hot paths, so path cloning without Config.HotPaths — at
// the config level or through one function's policy — is an error that
// names them, not a layout without cloning; with the paths supplied it
// runs.
func TestSourcesWithoutSamplesRefusePathCloning(t *testing.T) {
	m, prof := synthMap(), synthProfile(50)
	agg, err := BuildAggregate(m, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := ReconstructPaths(m, prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{Policy: Policy{PathClone: true}}, {FuncPolicies: map[string]Policy{"foo": {PathClone: true}}}} {
		for name, src := range map[string]func() Source{
			"wire":     func() Source { return Wire(bytes.NewReader(prof.AppendWire(nil))) },
			"prebuilt": func() Source { return Prebuilt(agg) },
		} {
			if _, err := Analyze(held(m), src(), cfg); err == nil || !strings.Contains(err.Error(), "HotPaths") {
				t.Errorf("%s, %+v: got %v, want an error naming the missing HotPaths", name, cfg, err)
			}
			withPaths := cfg
			withPaths.HotPaths = paths
			if _, err := Analyze(held(m), src(), withPaths); err != nil {
				t.Errorf("%s, %+v with paths: %v", name, cfg, err)
			}
		}
	}
	if _, err := Analyze(held(m), Source{}, Config{}); err == nil {
		t.Error("a zero Source was accepted")
	}
}

// TestAnalyzeDuringFailures: whatever fails — the run part-way through its
// batches, the map's decode while the run goes on, the build-ID check
// before anything starts — comes back as itself, the run is not started
// for a profile that would be rejected, and no worker goroutine is left.
func TestAnalyzeDuringFailures(t *testing.T) {
	m, prof := synthMap(), synthProfile(400)
	loadMap := func() (*bbaddrmap.Map, error) { return m, nil }
	errRun, errMap := errors.New("run faulted"), errors.New("map is corrupt")
	base := runtime.NumGoroutine()
	for _, w := range []int{1, 2, 8} {
		cfg := Config{Workers: w}
		_, err := Analyze(loadMap, During("", func(add func([]profile.Sample)) (*profile.Profile, error) {
			for i := 0; i < 300; i += 10 {
				add(prof.Samples[i : i+10])
			}
			return nil, errRun
		}), cfg)
		if err != errRun {
			t.Errorf("workers %d: failed run: got %v, want the run's own error", w, err)
		}
		waitForGoroutines(t, base)

		var calls int
		var fed bool
		_, err = Analyze(func() (*bbaddrmap.Map, error) { return nil, errMap }, During("", feedIn(prof, 10, &calls, &fed)), cfg)
		if err != errMap || calls != 1 {
			t.Errorf("workers %d: failed map decode: got %v after %d runs, want the decode's own error after one", w, err, calls)
		}
		waitForGoroutines(t, base)

		if _, err = Analyze(func() (*bbaddrmap.Map, error) { return &bbaddrmap.Map{}, nil }, During("", feedIn(prof, 10, &calls, &fed)), cfg); err == nil {
			t.Errorf("workers %d: empty map accepted", w)
		}
		waitForGoroutines(t, base)

		cfg.BuildID, calls = "the-binary", 0
		if _, err = Analyze(loadMap, During("another-binary", feedIn(prof, 10, &calls, &fed)), cfg); err == nil || calls != 0 {
			t.Errorf("workers %d: build-ID mismatch: got %v after %d runs, want a rejection before the run", w, err, calls)
		}
	}
}

// slowReader delivers a serialized profile a window at a time, sleeping
// before each.
type slowReader struct {
	data  []byte
	pause time.Duration
}

func (r *slowReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(r.pause)
	n := copy(p, r.data[:min(len(r.data), 4096)])
	r.data = r.data[n:]
	return n, nil
}

// TestAggregateWallIsBusyTime pins Stats.AggregateWall to the shards' time
// spent folding: a feed that takes a second to hand over a small profile —
// a profiling run still sampling, a stream still arriving — leaves it at
// the few milliseconds the folds took, so core.Phase3Makespan never
// charges the producer's time to the aggregation arm. The waits dominate
// the feed so that the fed/8 bound holds on a loaded runner under -race,
// where the folds alone have taken 73 ms.
func TestAggregateWallIsBusyTime(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := randMap(rng, 12)
	prof := randProfile(rng, m, 2000)
	const pause, steps = 25 * time.Millisecond, 40
	for _, w := range []int{1, 2} {
		cfg := Config{Workers: w}
		start := time.Now()
		res, err := Analyze(held(m), During("", func(add func([]profile.Sample)) (*profile.Profile, error) {
			for i := 0; i < steps; i++ {
				time.Sleep(pause)
				add(prof.Samples[i*len(prof.Samples)/steps : (i+1)*len(prof.Samples)/steps])
			}
			return prof, nil
		}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fed := time.Since(start); fed < steps*pause || res.Stats.AggregateWall > fed/8 {
			t.Errorf("workers %d, incremental: AggregateWall %v of a %v feed; want the folds alone", w, res.Stats.AggregateWall, fed)
		}

		wire := prof.AppendWire(nil)
		start = time.Now()
		res, err = Analyze(held(m), Wire(&slowReader{data: wire, pause: pause * 4096 * steps / time.Duration(len(wire))}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fed := time.Since(start); fed < steps*pause/2 || res.Stats.AggregateWall > fed/8 {
			t.Errorf("workers %d, streamed: AggregateWall %v of a %v feed; want the folds alone", w, res.Stats.AggregateWall, fed)
		}

		if res, err = Analyze(held(m), Samples(prof), cfg); err != nil {
			t.Fatal(err)
		}
		if res.Stats.AggregateWall <= 0 || res.Stats.Workers != w {
			t.Errorf("workers %d, in memory: AggregateWall %v over %d workers", w, res.Stats.AggregateWall, res.Stats.Workers)
		}
	}
}
