package profsvc

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"propeller/internal/core"
	"propeller/internal/fleetprof"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/workload"
)

func tinyProgram(t *testing.T) *core.Program {
	t.Helper()
	prog, err := workload.Generate(workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return prog.Core
}

func tinyDriverConfig() DriverConfig {
	return DriverConfig{
		Generations: 5,
		Hosts:       3,
		QueueDepth:  256, // generous: stability runs must see no drops
		TrainInsts:  3_000_000,
		EvalInsts:   6_000_000,
	}
}

// genFingerprint compresses one loop's decision sequence to the fields
// that must reproduce exactly.
func genFingerprint(r *LoopResult) []string {
	out := make([]string, 0, len(r.Generations))
	for _, g := range r.Generations {
		out = append(out, g.ProfiledBuildID+"|"+g.CandidateBuildID+"|"+
			g.DeployedBuildID+"|"+g.LayoutSHA)
	}
	return out
}

// TestGenerationLoopConverges is the headline property: the profile →
// relink → redeploy loop improves the binary, never regresses, and
// reaches a byte-identical fixed point within five generations — and
// routing publish/fetch through the real HTTP front end (streamed WPR3,
// build-ID enforced) reproduces the in-process loop decision for decision.
func TestGenerationLoopConverges(t *testing.T) {
	prog := tinyProgram(t)
	res, err := RunGenerations(prog, tinyDriverConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Generations) != 5 {
		t.Fatalf("got %d generations", len(res.Generations))
	}
	prev := 0.0
	for _, g := range res.Generations {
		if !g.GateOpen {
			t.Fatalf("gen %d: zero scorer should admit: %+v", g.Index, g.Admit)
		}
		if g.CandidateBuildID == "" || g.LayoutSHA == "" {
			t.Fatalf("gen %d produced no candidate", g.Index)
		}
		if g.CandidateBuildID == g.ProfiledBuildID {
			t.Fatalf("gen %d: relink did not produce a new content-hash build ID", g.Index)
		}
		if g.SpeedupPct < prev {
			t.Fatalf("gen %d: speedup regressed %.3f%% -> %.3f%%", g.Index, prev, g.SpeedupPct)
		}
		prev = g.SpeedupPct
	}
	if !res.Generations[0].Adopted {
		t.Fatal("first optimized binary should beat the metadata baseline")
	}
	if res.FinalSpeedupPct() <= 0 {
		t.Fatalf("final speedup %.3f%%, want > 0", res.FinalSpeedupPct())
	}
	if !res.FixedPoint {
		t.Fatalf("loop did not converge: %+v", genFingerprint(res))
	}
	if res.FixedPointGen > 5 {
		t.Fatalf("fixed point at generation %d, want within 5", res.FixedPointGen)
	}
	last := res.Generations[len(res.Generations)-1]
	if last.DeployedBuildID == res.BaselineBuildID {
		t.Fatal("loop never deployed an optimized binary")
	}

	// Same loop over the wire.
	direct := res
	store := NewStore(StoreConfig{})
	svc := NewService(store)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cfg := tinyDriverConfig()
	cfg.Store = store
	cfg.Service = svc
	cfg.Client = &Client{BaseURL: ts.URL}
	wired, err := RunGenerations(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}

	df, wf := genFingerprint(direct), genFingerprint(wired)
	for i := range df {
		if df[i] != wf[i] {
			t.Fatalf("gen %d diverges over HTTP:\ndirect: %s\nwired:  %s", i+1, df[i], wf[i])
		}
	}
	if !wired.FixedPoint || wired.FixedPointGen != direct.FixedPointGen {
		t.Fatalf("HTTP loop convergence differs: %v/%d vs %v/%d",
			wired.FixedPoint, wired.FixedPointGen, direct.FixedPoint, direct.FixedPointGen)
	}
}

// TestGenerationLoopReproducible: the whole K-generation sequence is
// bit-identical at every ingestion shard/worker count and under injected
// transport faults — the fleetprof, sim and wpa determinism contracts
// composed through the full loop.
func TestGenerationLoopReproducible(t *testing.T) {
	prog := tinyProgram(t)
	var ref []string
	for _, tc := range []struct {
		shards, workers int
		loss, dup       float64
	}{
		{1, 1, 0, 0},
		{4, 2, 0, 0},
		{2, 2, 0.25, 0.25},
	} {
		cfg := tinyDriverConfig()
		cfg.Generations = 3
		cfg.Shards = tc.shards
		cfg.WorkersPerShard = tc.workers
		cfg.LossRate = tc.loss
		cfg.DupRate = tc.dup
		cfg.Seed = 11
		res, err := RunGenerations(prog, cfg)
		if err != nil {
			t.Fatalf("shards=%d workers=%d loss=%g: %v", tc.shards, tc.workers, tc.loss, err)
		}
		fp := genFingerprint(res)
		if ref == nil {
			ref = fp
			continue
		}
		for i := range ref {
			if fp[i] != ref[i] {
				t.Fatalf("shards=%d workers=%d loss=%g: gen %d diverges:\nwant %s\ngot  %s",
					tc.shards, tc.workers, tc.loss, i+1, ref[i], fp[i])
			}
		}
	}
}

// TestClosedGateKeepsServing: when the scorer never opens, the loop keeps
// serving the baseline — no candidate, no adoption, no crash.
func TestClosedGateKeepsServing(t *testing.T) {
	cfg := tinyDriverConfig()
	cfg.Generations = 2
	cfg.Scorer = Scorer{Gate: fleetprof.Gate{MinSamples: 1 << 40}}
	res, err := RunGenerations(tinyProgram(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Generations {
		if g.GateOpen || g.CandidateBuildID != "" || g.Adopted {
			t.Fatalf("gen %d: closed gate still produced a candidate: %+v", g.Index, g)
		}
		if g.DeployedBuildID != res.BaselineBuildID {
			t.Fatalf("gen %d: deployed binary changed behind a closed gate", g.Index)
		}
		if g.SpeedupPct != 0 {
			t.Fatalf("gen %d: speedup %.3f%% with no deployment", g.Index, g.SpeedupPct)
		}
	}
	if res.FixedPoint {
		t.Fatal("a gate-closed loop should not report convergence")
	}
}

// loopScorers are the admission policies the driver schedules differently:
// the zero scorer decides without the hot set and the hot-set scorers join
// it before deciding; a closed gate never relinks, on either path; and a
// freshness gate opens until the store's history dilutes the epoch. gates
// says which decisions the tiny loop sees: "open", "closed" or "both".
var loopScorers = []struct {
	name   string
	scorer Scorer
	reads  bool
	gates  string
}{
	{"zero", Scorer{}, false, "open"},
	{"hot-set", Scorer{Gate: fleetprof.Gate{MinHotFuncs: 3}, MinHotOverlap: 0.5}, true, "open"},
	{"closed", Scorer{Gate: fleetprof.Gate{MinSamples: 1 << 40}}, false, "closed"},
	{"hot-set closed", Scorer{Gate: fleetprof.Gate{MinHotFuncs: 1 << 20}}, true, "closed"},
	{"freshness", Scorer{MinFreshness: 0.9}, false, "both"},
}

// gates is which admission decisions a loop made, as loopScorers spells it.
func gates(r *LoopResult) string {
	var open, closed bool
	for _, g := range r.Generations {
		open, closed = open || g.GateOpen, closed || !g.GateOpen
	}
	switch {
	case open && closed:
		return "both"
	case open:
		return "open"
	}
	return "closed"
}

// withHTTP routes cfg's publishes and fetches through a fresh service behind
// a real HTTP server, which the returned func closes.
func withHTTP(cfg DriverConfig) (DriverConfig, func()) {
	store := NewStore(StoreConfig{})
	svc := NewService(store)
	ts := httptest.NewServer(svc.Handler())
	cfg.Store, cfg.Service, cfg.Client = store, svc, &Client{BaseURL: ts.URL}
	return cfg, ts.Close
}

// onCollect wraps the loop's fleet collection until the test ends: each
// call reports the collected binary to fn first, from whichever goroutine
// collects it.
func onCollect(t testing.TB, fn func(*objfile.Binary)) {
	orig := collectFleet
	collectFleet = func(bin *objfile.Binary, spec core.RunSpec, fo core.FleetOptions, misses bool) (*profile.Profile, *sim.Result, fleetprof.IngestStats, error) {
		fn(bin)
		return orig(bin, spec, fo, misses)
	}
	t.Cleanup(func() { collectFleet = orig })
}

// countCollections records the build ID of every binary the loop collects
// until the test ends; the returned func reads the record so far.
func countCollections(t testing.TB) func() []string {
	var mu sync.Mutex
	var ids []string
	onCollect(t, func(bin *objfile.Binary) {
		mu.Lock()
		ids = append(ids, bin.BuildID)
		mu.Unlock()
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(ids)
	}
}

// loseGen1 makes generation 1's candidate lose until the test ends, however
// it measures: a candidate distinct from the serving binary that is not
// adopted.
func loseGen1(t testing.TB) {
	orig := adopts
	adopts = func(g int, cand, deployed uint64) bool { return g != 1 && orig(g, cand, deployed) }
	t.Cleanup(func() { adopts = orig })
}

// TestRunGenerationsMatchesSerialReplay: the loop with the baseline run, the
// hot sets and each candidate's fleet collection off its critical path, and
// its analysis fed the store's profile in memory, returns the LoopResult
// the serial driver with the wire round trip returns — every generation
// with its admit report, cycle counts and retained count, and the store's
// accounting — for each scorer, in process and over HTTP. In one more arm
// generation 1's distinct candidate loses, so its collection is thrown
// away: generation 2 must collect the serving baseline again.
func TestRunGenerationsMatchesSerialReplay(t *testing.T) {
	prog := tinyProgram(t)
	t.Run("candidate loses", func(t *testing.T) {
		loseGen1(t)
		ids := countCollections(t)
		cfg := tinyDriverConfig()
		cfg.Generations = 3
		got, err := RunGenerations(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serialRunGenerations(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g1, g2 := got.Generations[0], got.Generations[1]
		if g1.Adopted || g1.CandidateBuildID == got.BaselineBuildID || g2.ProfiledBuildID != got.BaselineBuildID {
			t.Fatalf("generation 1 should lose a distinct candidate and generation 2 profile the baseline: %+v, %+v", g1, g2)
		}
		// The baseline twice (generations 1 and 2) and the candidate once.
		c := ids()
		slices.Sort(c)
		if want := wantCollections(got); !slices.Equal(c, want) {
			t.Fatalf("collected %v, want %v: generation 2 did not re-collect the baseline after candidate %s lost", c, want, g1.CandidateBuildID)
		}
		if !reflect.DeepEqual(got, want) {
			g, _ := json.MarshalIndent(got, "", " ")
			w, _ := json.MarshalIndent(want, "", " ")
			t.Errorf("the loop diverges from the serial replay\ngot  %s\nwant %s", g, w)
		}
	})
	for _, sc := range loopScorers {
		if sc.scorer.readsHotSet() != sc.reads {
			t.Fatalf("%s: readsHotSet = %v", sc.name, !sc.reads)
		}
		for _, wired := range []bool{false, true} {
			run := func(drive func(*core.Program, DriverConfig) (*LoopResult, error)) *LoopResult {
				cfg := tinyDriverConfig()
				cfg.Generations = 3
				cfg.Scorer = sc.scorer
				if wired {
					var stop func()
					cfg, stop = withHTTP(cfg)
					defer stop()
				}
				res, err := drive(prog, cfg)
				if err != nil {
					t.Fatalf("%s, wired=%v: %v", sc.name, wired, err)
				}
				return res
			}
			got, want := run(RunGenerations), run(serialRunGenerations)
			if gates(want) != sc.gates {
				t.Errorf("%s, wired=%v: gates %s, want %s: the scorer no longer covers its path", sc.name, wired, gates(want), sc.gates)
			}
			if !reflect.DeepEqual(got, want) {
				g, _ := json.MarshalIndent(got, "", " ")
				w, _ := json.MarshalIndent(want, "", " ")
				t.Errorf("%s, wired=%v: the loop diverges from the serial replay\ngot  %s\nwant %s", sc.name, wired, g, w)
			}
		}
	}
}

// wantCollections is what a loop must collect, read off its result: each
// generation's profiled binary, plus each candidate collected beside its
// run and thrown away — one that a later generation follows, that has not
// lost to the serving binary already, and that is not adopted.
func wantCollections(r *LoopResult) []string {
	var want []string
	lost := map[string]bool{r.BaselineBuildID: true}
	for i, g := range r.Generations {
		want = append(want, g.ProfiledBuildID)
		if g.CandidateBuildID == "" {
			continue
		}
		if i < len(r.Generations)-1 && !lost[g.CandidateBuildID] && !g.Adopted {
			want = append(want, g.CandidateBuildID)
		}
		if g.Adopted {
			lost = map[string]bool{g.CandidateBuildID: true}
		} else {
			lost[g.CandidateBuildID] = true
		}
	}
	slices.Sort(want)
	return want
}

// TestRunGenerationsCollections: speculating on the candidate skips no
// work — the fleet collects each generation's serving binary once, plus
// once per candidate collection thrown away — and a loop at its fixed point
// re-derives the same losing candidate without collecting it again, so
// running it longer adds no thrown-away collection.
func TestRunGenerationsCollections(t *testing.T) {
	prog := tinyProgram(t)
	run := func(t *testing.T, gens int, edit func(*DriverConfig)) (*LoopResult, []string) {
		ids := countCollections(t)
		cfg := tinyDriverConfig()
		cfg.Generations = gens
		edit(&cfg)
		res, err := RunGenerations(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := ids()
		slices.Sort(got)
		if want := wantCollections(res); !slices.Equal(got, want) {
			t.Fatalf("%d generations collected %v, want %v", gens, got, want)
		}
		return res, got
	}
	for _, sc := range loopScorers {
		t.Run(sc.name, func(t *testing.T) { run(t, 3, func(c *DriverConfig) { c.Scorer = sc.scorer }) })
	}
	t.Run("candidate loses", func(t *testing.T) {
		loseGen1(t)
		run(t, 3, func(*DriverConfig) {})
	})
	t.Run("adopted, then gate closed", func(t *testing.T) {
		// Generation 1's candidate is adopted; a store that already holds
		// eight publishes of that candidate's profile keeps the freshness
		// gate closed after it. Generation 2 takes the collection made
		// beside generation 1's run, and generation 3, profiling the same
		// binary, must collect it again.
		profs := map[string]*profile.Profile{}
		orig := collectFleet
		collectFleet = func(bin *objfile.Binary, spec core.RunSpec, fo core.FleetOptions, misses bool) (*profile.Profile, *sim.Result, fleetprof.IngestStats, error) {
			merged, run, st, err := orig(bin, spec, fo, misses)
			profs[bin.BuildID] = merged // the loop's collections run one at a time here
			return merged, run, st, err
		}
		cfg := tinyDriverConfig()
		cfg.Generations = 2
		first, err := RunGenerations(prog, cfg)
		collectFleet = orig
		if err != nil {
			t.Fatal(err)
		}
		c1 := profs[first.Generations[0].CandidateBuildID]
		store := NewStore(StoreConfig{})
		for range 8 {
			if _, err := store.Publish(&profile.Profile{Binary: c1.Binary, BuildID: c1.BuildID, Period: c1.Period, Samples: slices.Clone(c1.Samples)}); err != nil {
				t.Fatal(err)
			}
		}
		res, _ := run(t, 3, func(c *DriverConfig) { c.Store, c.Scorer = store, Scorer{MinFreshness: 0.9} })
		g := res.Generations
		if !g[0].Adopted || g[1].GateOpen || g[2].ProfiledBuildID != c1.BuildID {
			t.Fatalf("want generation 1 adopted, then generations 2 and 3 profiling it behind a closed gate: %+v", g)
		}
	})
	t.Run("fixed point", func(t *testing.T) {
		res5, ids5 := run(t, 5, func(*DriverConfig) {})
		res8, ids8 := run(t, 8, func(*DriverConfig) {})
		if !res5.FixedPoint || !res8.FixedPoint {
			t.Fatal("the tiny loop no longer reaches its fixed point")
		}
		if thrown5, thrown8 := len(ids5)-5, len(ids8)-8; thrown8 != thrown5 {
			t.Fatalf("%d collections thrown away in 8 generations, %d in 5: the fixed point throws collections away", thrown8, thrown5)
		}
		fixed := res8.Generations[7].CandidateBuildID
		if n := slices.Index(ids8, fixed); n >= 0 && slices.Contains(ids8[n+1:], fixed) {
			t.Fatalf("the fixed point's candidate %s was collected more than once: %v", fixed, ids8)
		}
	})
}

// TestRunGenerationsLeavesNoGoroutines: every return joins what the loop
// started. A loop that fails in generation 1 — its collection over budget
// while the baseline run is going, or its publish refused by a closed
// server while the hot set is being resolved — a closed-gate loop and a
// converging one all leave runtime.NumGoroutine where it was. So does a
// loop whose baseline run fails while its candidate's collection, held up
// on purpose, is still running: the return waits for that collection.
func TestRunGenerationsLeavesNoGoroutines(t *testing.T) {
	prog := tinyProgram(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	// Every collection after a loop's first is its candidate's, and takes
	// 200 ms longer than it would.
	var calls atomic.Int64
	var finished atomic.Bool
	slowCandidate := func(c *DriverConfig) {
		onCollect(t, func(*objfile.Binary) {
			if calls.Add(1) > 1 {
				time.Sleep(200 * time.Millisecond)
				finished.Store(true)
			}
		})
		c.EvalInsts = 10_000
	}
	for _, tc := range []struct {
		name    string
		edit    func(*DriverConfig)
		wantErr string
	}{
		{"collection fails", func(c *DriverConfig) { c.TrainInsts = 10_000 }, "profsvc: gen 1 collection: "},
		{"publish fails", func(c *DriverConfig) { c.Client = &Client{BaseURL: dead.URL} }, "profsvc: gen 1 publish: "},
		{"closed gate", func(c *DriverConfig) { c.Scorer = Scorer{Gate: fleetprof.Gate{MinSamples: 1 << 40}} }, ""},
		{"converging", func(*DriverConfig) {}, ""},
		{"baseline run fails beside a candidate's collection", slowCandidate, "profsvc: baseline run: "},
	} {
		cfg := tinyDriverConfig()
		cfg.Generations = 2
		tc.edit(&cfg)
		base := runtime.NumGoroutine()
		_, err := RunGenerations(prog, cfg)
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.wantErr)) {
			t.Fatalf("%s: err = %v, want prefix %q", tc.name, err, tc.wantErr)
		}
		if calls.Load() > 0 && (calls.Load() != 2 || !finished.Load()) {
			t.Fatalf("%s: the loop returned after %d collections, its candidate's finished: %v; want its own and its candidate's, finished", tc.name, calls.Load(), finished.Load())
		}
		// A job that has handed back its result is still counted until its
		// goroutine has finished exiting.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the loop: a job outlived it", tc.name, runtime.NumGoroutine(), base)
			}
		}
	}
}

// BenchmarkRunGenerations times the service loop alone at the benchmark's
// fleet-generation sizes: the MySQL shape at 2 500 requests, two hosts,
// four generations of 20 M training instructions per host. collections/op
// counts the fleet collections a loop makes: each generation's, plus each
// candidate's that is thrown away.
//
//	go test ./internal/profsvc -run '^$' -bench RunGenerations -benchtime 10x -cpu 2
func BenchmarkRunGenerations(b *testing.B) {
	spec := workload.MySQL()
	spec.Requests = 2500
	prog, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DriverConfig{
		Generations: 4, Hosts: 2, Shards: 1, WorkersPerShard: 1,
		LossRate: 0.02, DupRate: 0.02, Seed: 1,
		TrainInsts: 20_000_000, LBRPeriod: 211,
	}
	cfg.Opts.WPA.Workers = 2
	var collections atomic.Int64
	onCollect(b, func(*objfile.Binary) { collections.Add(1) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunGenerations(prog.Core, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(collections.Load())/float64(b.N), "collections/op")
}
