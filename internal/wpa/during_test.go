package wpa

import (
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/profile"
)

// feedIn returns an AnalyzeDuring run that hands prof over in batches of
// the given size, counts the calls it got and says whether it was given an
// add at all.
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

// TestAnalyzeDuringMatchesAnalyze: a profile analyzed while it arrives, in
// batches of any size, at any worker count, yields the artifacts and the
// counted stats of Analyze over the finished profile — in both layout modes,
// with path cloning (whose paths come from the complete profile), and
// through the incremental cache, where a warm epoch aggregate leaves the
// run with no add to call.
func TestAnalyzeDuringMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(2323))
	for trial := 0; trial < 4; trial++ {
		m := randMap(rng, 3+rng.Intn(20))
		prof := randProfile(rng, m, 50+rng.Intn(600))
		prof.BuildID = "pm-build"
		loadMap := func() (*bbaddrmap.Map, error) { return m, nil }
		for _, base := range []Config{{}, {InterProc: true}, {PathClone: true}} {
			base.BuildID = prof.BuildID
			want, err := Analyze(m, prof, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 8} {
				for _, batch := range []int{1, 7, 2048} {
					cfg := base
					cfg.Workers, cfg.Cache, cfg.ProfileEpoch = w, buildsys.NewCache(), "e1"
					for _, pass := range []string{"cold", "warm"} {
						var calls int
						var fed bool
						got, err := AnalyzeDuring(loadMap, prof.BuildID, cfg, feedIn(prof, batch, &calls, &fed))
						if err != nil {
							t.Fatal(err)
						}
						label := pass + " run"
						requireSameArtifacts(t, want, got, label)
						// A global-layout hit replays the artifacts without the
						// per-layout stats, as it does for Analyze.
						gs, ws := statsComparable(got.Stats), statsComparable(want.Stats)
						gs.AggregateCacheHit, gs.GlobalCacheHit, gs.FuncLayoutHits, gs.FuncLayoutMisses = false, false, 0, 0
						if pass == "warm" {
							gs.RelaidFuncs, gs.LayoutShards, gs.LayoutShardNodes = ws.RelaidFuncs, ws.LayoutShards, ws.LayoutShardNodes
						}
						if !reflect.DeepEqual(gs, ws) {
							t.Fatalf("trial %d %+v workers %d batch %d, %s: stats diverged\nduring  %+v\nanalyze %+v", trial, base, w, batch, label, gs, ws)
						}
						if calls != 1 || fed != (pass == "cold") || got.Stats.AggregateCacheHit != (pass == "warm") {
							t.Fatalf("%s: run called %d times, given an add: %t, aggregate hit: %t", label, calls, fed, got.Stats.AggregateCacheHit)
						}
					}
				}
			}
		}
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
		_, err := AnalyzeDuring(loadMap, "", cfg, func(add func([]profile.Sample)) (*profile.Profile, error) {
			for i := 0; i < 300; i += 10 {
				add(prof.Samples[i : i+10])
			}
			return nil, errRun
		})
		if err != errRun {
			t.Errorf("workers %d: failed run: got %v, want the run's own error", w, err)
		}
		waitForGoroutines(t, base)

		var calls int
		var fed bool
		_, err = AnalyzeDuring(func() (*bbaddrmap.Map, error) { return nil, errMap }, "", cfg, feedIn(prof, 10, &calls, &fed))
		if err != errMap || calls != 1 {
			t.Errorf("workers %d: failed map decode: got %v after %d runs, want the decode's own error after one", w, err, calls)
		}
		waitForGoroutines(t, base)

		if _, err = AnalyzeDuring(func() (*bbaddrmap.Map, error) { return &bbaddrmap.Map{}, nil }, "", cfg, feedIn(prof, 10, &calls, &fed)); err == nil {
			t.Errorf("workers %d: empty map accepted", w)
		}
		waitForGoroutines(t, base)

		cfg.BuildID, calls = "the-binary", 0
		if _, err = AnalyzeDuring(loadMap, "another-binary", cfg, feedIn(prof, 10, &calls, &fed)); err == nil || calls != 0 {
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
// spent folding: a feed that takes most of a second to hand over a small
// profile — a profiling run still sampling, a stream still arriving —
// leaves it at the few milliseconds the folds took, so core.Phase3Makespan
// never charges the producer's time to the aggregation arm.
func TestAggregateWallIsBusyTime(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := randMap(rng, 12)
	prof := randProfile(rng, m, 2000)
	const pause, steps = 10 * time.Millisecond, 40
	for _, w := range []int{1, 2} {
		cfg := Config{Workers: w}
		start := time.Now()
		res, err := AnalyzeDuring(func() (*bbaddrmap.Map, error) { return m, nil }, "", cfg, func(add func([]profile.Sample)) (*profile.Profile, error) {
			for i := 0; i < steps; i++ {
				time.Sleep(pause)
				add(prof.Samples[i*len(prof.Samples)/steps : (i+1)*len(prof.Samples)/steps])
			}
			return prof, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if fed := time.Since(start); fed < steps*pause || res.Stats.AggregateWall > fed/8 {
			t.Errorf("workers %d, incremental: AggregateWall %v of a %v feed; want the folds alone", w, res.Stats.AggregateWall, fed)
		}

		wire := prof.AppendWire(nil)
		start = time.Now()
		res, err = AnalyzeStream(m, &slowReader{data: wire, pause: pause * 4096 * steps / time.Duration(len(wire))}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fed := time.Since(start); fed < steps*pause/2 || res.Stats.AggregateWall > fed/8 {
			t.Errorf("workers %d, streamed: AggregateWall %v of a %v feed; want the folds alone", w, res.Stats.AggregateWall, fed)
		}

		if res, err = Analyze(m, prof, cfg); err != nil {
			t.Fatal(err)
		}
		if res.Stats.AggregateWall <= 0 || res.Stats.Workers != w {
			t.Errorf("workers %d, in memory: AggregateWall %v over %d workers", w, res.Stats.AggregateWall, res.Stats.Workers)
		}
	}
}
