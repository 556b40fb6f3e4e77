// Package propeller_test holds the benchmark harness that regenerates
// every table and figure of the paper's evaluation (§5). One full
// evaluation sweep over the scaled workload catalog is computed once and
// shared by all benchmarks in the run; each benchmark then prints its
// table/figure to stdout and reports headline metrics.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or a single artifact with e.g.:
//
//	go test -bench=BenchmarkTable3 -benchtime=1x
package propeller_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/codegen"
	"propeller/internal/core"
	"propeller/internal/eval"
	"propeller/internal/exttsp"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/layoutfile"
	"propeller/internal/linker"
	"propeller/internal/memmodel"
	"propeller/internal/objfile"
	"propeller/internal/policysearch"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

var (
	sweepOnce sync.Once
	sweepRes  map[string]*eval.Result
	sweepErr  error
)

// sweep runs the full evaluation once per `go test` process.
func sweep(b *testing.B) map[string]*eval.Result {
	b.Helper()
	sweepOnce.Do(func() {
		sweepRes = map[string]*eval.Result{}
		for _, spec := range workload.Catalog() {
			cfg := eval.Config{
				Spec:    spec,
				RunBolt: true,
				// Open-source and SPEC rows are built on the 72-core
				// workstation (§5, Methodology); WSC rows on the fleet.
				Workstation: !spec.Integrity && spec.Name != "search",
			}
			res, err := eval.RunWorkload(cfg)
			if err != nil {
				sweepErr = fmt.Errorf("%s: %w", spec.Name, err)
				return
			}
			sweepRes[spec.Name] = res
		}
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepRes
}

func ordered(results map[string]*eval.Result, names []string) []*eval.Result {
	var out []*eval.Result
	for _, n := range names {
		if r, ok := results[n]; ok {
			out = append(out, r)
		}
	}
	return out
}

func wscNames() []string { return []string{"spanner", "search", "superroot", "bigtable"} }
func ossNames() []string { return []string{"clang", "mysql"} }
func specNames() []string {
	var out []string
	for _, s := range workload.SPECInt() {
		out = append(out, s.Name)
	}
	return out
}

func allNames() []string {
	return append(append(ossNames(), wscNames()...), specNames()...)
}

// BenchmarkTable2 regenerates the benchmark characteristics table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := &eval.Report{Results: ordered(sweep(b), allNames())}
		rep.Table2(os.Stdout)
	}
}

// BenchmarkFig4 regenerates the Phase-3 peak-memory comparison.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := sweep(b)
		rep := &eval.Report{Results: ordered(results, allNames())}
		rep.Fig4(os.Stdout)
		// Headline: BOLT conversion memory over Propeller WPA memory on
		// the largest workload.
		if r := results["superroot"]; r != nil && r.WPAStats.ModeledBytes > 0 {
			b.ReportMetric(float64(r.BoltConvertMem)/float64(r.WPAStats.ModeledBytes), "boltMemX")
			b.ReportMetric(memmodel.MB(r.WPAStats.ModeledBytes), "propWPA-MB")
		}
	}
}

// BenchmarkFig5 regenerates the Phase-4 peak-memory comparison.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := sweep(b)
		rep := &eval.Report{Results: ordered(results, allNames())}
		rep.Fig5(os.Stdout)
		if r := results["search"]; r != nil && r.BoltStats != nil {
			b.ReportMetric(float64(r.BoltStats.PeakMemory)/float64(r.BaseLink.PeakMemory), "boltVsLinkX")
		}
	}
}

// BenchmarkFig6 regenerates the binary-size breakdown.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := sweep(b)
		rep := &eval.Report{Results: ordered(results, allNames())}
		rep.Fig6(os.Stdout)
		if r := results["clang"]; r != nil {
			b.ReportMetric(100*float64(r.PO.Stats().Total())/float64(r.Base.Stats().Total())-100, "POgrowth%")
			b.ReportMetric(100*float64(r.BO.Stats().Total())/float64(r.Base.Stats().Total())-100, "BOgrowth%")
		}
	}
}

// BenchmarkTable3 regenerates the performance-improvement table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := sweep(b)
		rep := &eval.Report{Results: ordered(results, append(ossNames(), wscNames()...))}
		rep.Table3(os.Stdout)
		crashes := 0
		for _, n := range wscNames() {
			if r := results[n]; r != nil && r.BOCrash != nil {
				crashes++
			}
		}
		b.ReportMetric(float64(crashes), "boltWSCcrashes")
		if r := results["clang"]; r != nil {
			b.ReportMetric(eval.Speedup(r.BaseRun, r.PORun), "clangSpeedup%")
		}
	}
}

// BenchmarkFig7 regenerates the instruction-access heat maps for clang.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunWorkload(eval.Config{
			Spec:     workload.Clang(),
			RunBolt:  true,
			Heatmaps: true,
			HeatRows: 56, HeatCols: 72,
			Workstation: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep := &eval.Report{Results: []*eval.Result{res}}
		rep.Fig7(os.Stdout)
		if f, err := os.Create("fig7_clang_base.csv"); err == nil {
			res.BaseRun.Heat.WriteCSV(f)
			f.Close()
		}
		if f, err := os.Create("fig7_clang_propeller.csv"); err == nil {
			res.PORun.Heat.WriteCSV(f)
			f.Close()
		}
		if res.BORun != nil && res.BORun.Heat != nil {
			if f, err := os.Create("fig7_clang_bolt.csv"); err == nil {
				res.BORun.Heat.WriteCSV(f)
				f.Close()
			}
		}
		b.ReportMetric(float64(res.BaseRun.Heat.HotSpan())/1024, "baseSpanKB")
		b.ReportMetric(float64(res.PORun.Heat.HotSpan())/1024, "propSpanKB")
	}
}

// BenchmarkFig8 regenerates the normalized performance-counter figure.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := sweep(b)
		rep := &eval.Report{Results: ordered(results, []string{"search", "clang"})}
		rep.Fig8(os.Stdout)
		if r := results["clang"]; r != nil {
			b.ReportMetric(eval.CounterRatio(r.BaseRun, r.PORun, "T1"), "clangITLB%")
			b.ReportMetric(eval.CounterRatio(r.BaseRun, r.PORun, "I1"), "clangL1I%")
		}
	}
}

// BenchmarkTable5 regenerates the build-phase time table.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := &eval.Report{Results: ordered(sweep(b), wscNames())}
		rep.Table5(os.Stdout)
	}
}

// BenchmarkFig9 regenerates the optimization-runtime comparison.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := sweep(b)
		rep := &eval.Report{Results: ordered(results, allNames())}
		rep.Fig9(os.Stdout)
		// Headline: Propeller relink vs baseline on WSC (cold reuse).
		if r := results["search"]; r != nil {
			prop := r.Propeller.Optimized.Exec.Makespan + r.Propeller.Optimized.Linking
			base := r.Propeller.Metadata.Exec.Makespan + r.Propeller.Metadata.Linking
			b.ReportMetric(100*prop/base, "relinkVsBuild%")
		}
	}
}

// slotSweepRecord is one point of the BENCH_buildsys.json curve.
type slotSweepRecord struct {
	Workload          string  `json:"workload"`
	Tier              string  `json:"tier"`
	Slots             int     `json:"slots"`
	Makespan          float64 `json:"makespanSeconds"`
	TotalCost         float64 `json:"totalCostSeconds"`
	Stall             float64 `json:"stallSeconds"`
	PeakConcurrentMem int64   `json:"peakConcurrentMemBytes"`
	Actions           int     `json:"actions"`
	RemoteFetches     int64   `json:"remoteFetches"`
}

// BenchmarkSlotSweep regenerates the backend-scaling curve behind
// Table 5 / Fig 9: modeled Phase-2 makespan for every catalog workload,
// swept over fleet slot counts (1–128) and cache tiers — cold build,
// warm local tier (free), warm remote tier (cheap but not free) — plus
// the §2.1 fleet-memory admission study for 12GB-class relink actions.
// It writes the full curve to BENCH_buildsys.json (the CI bench-smoke
// artifact) and fails if any makespan curve is not monotone
// non-increasing in the slot count.
func BenchmarkSlotSweep(b *testing.B) {
	slotCounts := []int{1, 2, 4, 8, 16, 32, 64, 128}
	for iter := 0; iter < b.N; iter++ {
		var records []slotSweepRecord
		add := func(name, tier string, slots int, stats *buildsys.ExecStats, linking float64, fetches int64) {
			records = append(records, slotSweepRecord{
				Workload:          name,
				Tier:              tier,
				Slots:             slots,
				Makespan:          stats.Makespan + linking,
				TotalCost:         stats.TotalCost + linking,
				Stall:             stats.StallSeconds,
				PeakConcurrentMem: stats.PeakConcurrentMem,
				Actions:           stats.Actions,
				RemoteFetches:     fetches,
			})
		}

		for _, spec := range workload.Catalog() {
			prog, err := workload.Generate(spec)
			if err != nil {
				b.Fatal(err)
			}
			p := prog.Core

			// One real cold build: warms the local-tier arm, yields the
			// link cost, and cross-checks the replayed model below.
			localIR, localObj := buildsys.NewCache(), buildsys.NewCache()
			cold, err := core.BuildWithMetadata(p, core.Options{
				IRCache: localIR, ObjCache: localObj, Executor: buildsys.Workstation(),
			})
			if err != nil {
				b.Fatal(err)
			}

			// Cold tier: replay the modeled codegen batch over the sweep
			// (costs identical to the real build's, no recompilation).
			model := core.CodegenActions(p)
			check, err := (&buildsys.Executor{Slots: buildsys.WorkstationSlots}).Execute(model)
			if err != nil {
				b.Fatal(err)
			}
			if math.Abs(check.Makespan-cold.Exec.Makespan) > 1e-9 {
				b.Fatalf("%s: model makespan %v diverges from real cold build %v",
					spec.Name, check.Makespan, cold.Exec.Makespan)
			}
			for _, n := range slotCounts {
				stats, err := (&buildsys.Executor{Slots: n}).Execute(model)
				if err != nil {
					b.Fatal(err)
				}
				add(spec.Name, "cold", n, stats, cold.Linking, 0)
			}

			// Warm local tier: every object is a free local hit.
			for _, n := range slotCounts {
				res, err := core.BuildWithMetadata(p, core.Options{
					IRCache: localIR, ObjCache: localObj, Executor: &buildsys.Executor{Slots: n},
				})
				if err != nil {
					b.Fatal(err)
				}
				add(spec.Name, "warm-local", n, res.Exec, res.Linking, 0)
			}

			// Warm remote tier: a tiny local tier over a shared remote, so
			// every object crosses the network as a modeled fetch action.
			remote := buildsys.NewRemote()
			tierIR := buildsys.NewTieredCache(1<<16, remote)
			tierObj := buildsys.NewTieredCache(1<<16, remote)
			if _, err := core.BuildWithMetadata(p, core.Options{
				IRCache: tierIR, ObjCache: tierObj, Executor: buildsys.Workstation(),
			}); err != nil {
				b.Fatal(err)
			}
			for _, n := range slotCounts {
				before := tierObj.Stats().RemoteFetches
				res, err := core.BuildWithMetadata(p, core.Options{
					IRCache: tierIR, ObjCache: tierObj, Executor: &buildsys.Executor{Slots: n},
				})
				if err != nil {
					b.Fatal(err)
				}
				add(spec.Name, "warm-remote", n, res.Exec, res.Linking, tierObj.Stats().RemoteFetches-before)
			}
		}

		// §2.1 fleet-memory admission: how many 12GB-class relink actions
		// the pool actually sustains across the slot sweep.
		relink := make([]*buildsys.Action, 64)
		for i := range relink {
			relink[i] = &buildsys.Action{Name: "relink-shard", Cost: 60, MemBytes: buildsys.DistributedMemLimit}
		}
		var sustained int64
		for _, n := range slotCounts {
			e := &buildsys.Executor{Slots: n, MemLimit: buildsys.DistributedMemLimit, PoolMem: buildsys.DistributedPoolMem}
			stats, err := e.Execute(relink)
			if err != nil {
				b.Fatal(err)
			}
			add("fleet-12gb-relink", "pool-admission", n, stats, 0, 0)
			if n == buildsys.DistributedSlots {
				sustained = stats.PeakConcurrentMem / buildsys.DistributedMemLimit
				fmt.Printf("§2.1 fleet admission: 64 12GB relink actions on %d slots / %dGB pool: %d concurrent, makespan %.0fs, stall %.0f slot-s\n",
					n, buildsys.DistributedPoolMem>>30, sustained, stats.Makespan, stats.StallSeconds)
			}
		}
		b.ReportMetric(float64(sustained), "12GBsustained")

		// Every (workload, tier) curve must be monotone non-increasing in
		// the slot count — more backends never slow the modeled build.
		last := map[string]float64{}
		for _, r := range records {
			key := r.Workload + "/" + r.Tier
			if prev, ok := last[key]; ok && r.Makespan > prev+1e-9 {
				b.Fatalf("%s: makespan %v at %d slots worse than previous point %v", key, r.Makespan, r.Slots, prev)
			}
			last[key] = r.Makespan
		}

		// The Fig 9 shape: per workload, cold scaling and the warm tiers.
		for _, spec := range workload.Catalog() {
			find := func(tier string, slots int) float64 {
				for _, r := range records {
					if r.Workload == spec.Name && r.Tier == tier && r.Slots == slots {
						return r.Makespan
					}
				}
				return math.NaN()
			}
			c1, c128 := find("cold", 1), find("cold", 128)
			fmt.Printf("Table5/Fig9 sweep %-14s cold 1->128 slots: %8.1fs -> %6.1fs (%5.1fx); warm-local %5.1fs; warm-remote %5.1fs\n",
				spec.Name, c1, c128, c1/c128, find("warm-local", 64), find("warm-remote", 64))
		}

		f, err := os.Create("BENCH_buildsys.json")
		if err != nil {
			b.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(map[string]any{
			"benchmark":  "SlotSweep",
			"slotCounts": slotCounts,
			"poolMemGB":  buildsys.DistributedPoolMem >> 30,
			"records":    records,
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// wpaScalingRecord is one point of the BENCH_wpa.json curve.
type wpaScalingRecord struct {
	Workload  string `json:"workload"`
	Mode      string `json:"mode"`      // "intra" or "interproc"
	Retrieval string `json:"retrieval"` // "heap" or "naive"
	Workers   int    `json:"workers"`

	// LayoutShards is the number of independent layout units the run
	// partitioned into (hot functions for intra, hot-graph components
	// for interproc); it bounds the layout arm's achievable parallelism.
	LayoutShards int `json:"layoutShards"`

	// Modeled analysis time on a machine with `workers` cores:
	// aggregation divides the per-record cost across shards; layout is
	// bounded below by max(total work / workers, largest function).
	// These are what the monotonicity and heap-vs-naive assertions check.
	ModeledSeconds          float64 `json:"modeledSeconds"`
	ModeledAggregateSeconds float64 `json:"modeledAggregateSeconds"`
	ModeledLayoutSeconds    float64 `json:"modeledLayoutSeconds"`

	// ScheduledLayoutSeconds is the same layout action set run through
	// the buildsys list scheduler with `workers` slots.
	ScheduledLayoutSeconds float64 `json:"scheduledLayoutSeconds"`

	// MeasuredSeconds is the wall time of the actual wpa.Analyze call on
	// this machine (reported for honesty; not asserted — the CI runner's
	// core count, not the model's, bounds it).
	MeasuredSeconds float64 `json:"measuredSeconds"`
	// MeasuredRecordsPerSec is the raw aggregation throughput of the same
	// call (LBR records / wall seconds); "measured" keeps it out of the
	// benchdiff gate like every other machine-dependent number.
	MeasuredRecordsPerSec float64 `json:"measuredRecordsPerSec"`

	Records  int `json:"records"`
	HotFuncs int `json:"hotFuncs"`
}

// wpaLayoutActions models each hot function's Ext-TSP run as one
// schedulable action. With V blocks and E≈2V edges, the naive retrieval
// rescans ~V chain pairs per merge round (V rounds, E edge-scans per
// evaluation) while the heap pays log-time retrieval — the §4.7
// "logarithmic time retrieval of the most profitable action". The heap
// cost is clamped by the naive cost so the model never claims the heap
// loses on functions too small for retrieval strategy to matter.
func wpaLayoutActions(res *wpa.Result, naive bool) []*buildsys.Action {
	const (
		costBuild = 1e-7 // graph construction per edge
		costEval  = 2e-7 // candidate evaluation per edge-scan
	)
	names := make([]string, 0, len(res.Directives))
	for fn := range res.Directives {
		names = append(names, fn)
	}
	sort.Strings(names)
	var acts []*buildsys.Action
	for _, fn := range names {
		v := 0
		for _, c := range res.Directives[fn].Clusters {
			v += len(c)
		}
		if v == 0 {
			continue
		}
		e := float64(2 * v)
		naiveCost := costBuild*e + costEval*e*float64(v*v)
		cost := naiveCost
		if !naive {
			heapCost := costBuild*e + costEval*e*float64(v)*math.Log2(float64(v)+2)
			if heapCost < naiveCost {
				cost = heapCost
			}
		}
		acts = append(acts, &buildsys.Action{Name: "layout:" + fn, Cost: cost})
	}
	return acts
}

// interProcShardActions models the §4.7 global Ext-TSP run as one action
// per component shard of the hot-block graph, using the same
// heap-retrieval cost formula as wpaLayoutActions. The component
// partition is priced as an upper bound on the run's parallelism: merges
// never cross a component, but the code runs one merge state and does not
// fan the components out. Shard node counts come from wpa.Stats, which
// reports them identically at every worker count.
func interProcShardActions(st wpa.Stats) []*buildsys.Action {
	const (
		costBuild = 1e-7
		costEval  = 2e-7
	)
	acts := make([]*buildsys.Action, 0, len(st.LayoutShardNodes))
	for i, v := range st.LayoutShardNodes {
		if v == 0 {
			continue
		}
		e := float64(2 * v)
		cost := costBuild*e + costEval*e*float64(v)*math.Log2(float64(v)+2)
		acts = append(acts, &buildsys.Action{Name: fmt.Sprintf("shard:%d", i), Cost: cost})
	}
	return acts
}

// BenchmarkWPAScaling reproduces the paper's Table-4 analysis-time axis:
// wpa.Analyze swept over worker counts 1–16 and the naive-vs-heap Ext-TSP
// retrieval ablation, for every catalog workload, reusing the shared
// sweep's metadata binaries and LBR profiles. A second arm sweeps the
// §4.7 inter-procedural mode, whose modeled layout parallelism is bounded
// by the hot-graph component shards (an upper bound: the layout itself is
// one merge state sharing its re-scoring). It writes the full curve to BENCH_wpa.json
// (the CI bench-smoke artifact) and fails if any modeled curve is not
// monotone non-increasing in workers, if the heap retrieval does not beat
// naive at every worker count, or if the parallel analysis is not
// bit-identical to serial in either mode.
func BenchmarkWPAScaling(b *testing.B) {
	workerCounts := []int{1, 2, 4, 8, 16}
	const costWPAPerRecord = 2e-6 // mirrors internal/core's Phase-3 model
	for iter := 0; iter < b.N; iter++ {
		results := sweep(b)
		var records []wpaScalingRecord
		for _, spec := range workload.Catalog() {
			r := results[spec.Name]
			if r == nil || r.PM == nil || r.Propeller == nil || r.Propeller.Profile == nil {
				b.Fatalf("%s: sweep result missing metadata binary or profile", spec.Name)
			}
			m, err := bbaddrmap.Decode(r.PM.BBAddrMap)
			if err != nil {
				b.Fatal(err)
			}
			prof := r.Propeller.Profile
			var serialCC []byte
			for _, naive := range []bool{false, true} {
				retrieval := "heap"
				if naive {
					retrieval = "naive"
				}
				for _, w := range workerCounts {
					start := time.Now()
					res, err := wpa.Analyze(func() (*bbaddrmap.Map, error) { return m, nil }, wpa.Samples(prof), wpa.Config{Workers: w, NaiveExtTSP: naive})
					if err != nil {
						b.Fatal(err)
					}
					measured := time.Since(start).Seconds()

					acts := wpaLayoutActions(res, naive)
					var totalCost, maxCost float64
					for _, a := range acts {
						totalCost += a.Cost
						if a.Cost > maxCost {
							maxCost = a.Cost
						}
					}
					layout := totalCost / float64(w)
					if maxCost > layout {
						layout = maxCost
					}
					scheduled := 0.0
					if len(acts) > 0 {
						stats, err := (&buildsys.Executor{Slots: w}).Execute(acts)
						if err != nil {
							b.Fatal(err)
						}
						scheduled = stats.Makespan
					}
					agg := float64(res.Stats.Records) * costWPAPerRecord / float64(w)
					records = append(records, wpaScalingRecord{
						Workload:                spec.Name,
						Mode:                    "intra",
						Retrieval:               retrieval,
						Workers:                 w,
						LayoutShards:            res.Stats.LayoutShards,
						ModeledSeconds:          agg + layout,
						ModeledAggregateSeconds: agg,
						ModeledLayoutSeconds:    layout,
						ScheduledLayoutSeconds:  scheduled,
						MeasuredSeconds:         measured,
						MeasuredRecordsPerSec:   float64(res.Stats.Records) / measured,
						Records:                 res.Stats.Records,
						HotFuncs:                res.Stats.HotFuncs,
					})

					// Determinism cross-check: every worker count must emit
					// byte-identical directives (heap arm; the naive arm is
					// covered by the exttsp equivalence tests).
					if !naive {
						var cc bytes.Buffer
						if err := layoutfile.WriteDirectives(&cc, res.Directives); err != nil {
							b.Fatal(err)
						}
						if serialCC == nil {
							serialCC = cc.Bytes()
						} else if !bytes.Equal(cc.Bytes(), serialCC) {
							b.Fatalf("%s: workers=%d directives differ from workers=1", spec.Name, w)
						}
					}
				}
			}

			// Inter-procedural arm (§4.7's global layout, heap retrieval):
			// the parallel path shards by hot-graph component, so the
			// modeled layout time is bounded below by the largest shard.
			var interSerial []byte
			for _, w := range workerCounts {
				start := time.Now()
				res, err := wpa.Analyze(func() (*bbaddrmap.Map, error) { return m, nil }, wpa.Samples(prof), wpa.Config{Workers: w, InterProc: true})
				if err != nil {
					b.Fatal(err)
				}
				measured := time.Since(start).Seconds()

				acts := interProcShardActions(res.Stats)
				var totalCost, maxCost float64
				for _, a := range acts {
					totalCost += a.Cost
					if a.Cost > maxCost {
						maxCost = a.Cost
					}
				}
				layout := totalCost / float64(w)
				if maxCost > layout {
					layout = maxCost
				}
				scheduled := 0.0
				if len(acts) > 0 {
					stats, err := (&buildsys.Executor{Slots: w}).Execute(acts)
					if err != nil {
						b.Fatal(err)
					}
					scheduled = stats.Makespan
				}
				agg := float64(res.Stats.Records) * costWPAPerRecord / float64(w)
				records = append(records, wpaScalingRecord{
					Workload:                spec.Name,
					Mode:                    "interproc",
					Retrieval:               "heap",
					Workers:                 w,
					LayoutShards:            res.Stats.LayoutShards,
					ModeledSeconds:          agg + layout,
					ModeledAggregateSeconds: agg,
					ModeledLayoutSeconds:    layout,
					ScheduledLayoutSeconds:  scheduled,
					MeasuredSeconds:         measured,
					MeasuredRecordsPerSec:   float64(res.Stats.Records) / measured,
					Records:                 res.Stats.Records,
					HotFuncs:                res.Stats.HotFuncs,
				})

				// Bit-identity across the sweep: both artifacts, since the
				// interproc path also rewrites the global symbol order
				// (entry runs, .cold symbols).
				var buf bytes.Buffer
				if err := layoutfile.WriteDirectives(&buf, res.Directives); err != nil {
					b.Fatal(err)
				}
				if err := layoutfile.WriteOrder(&buf, res.Order); err != nil {
					b.Fatal(err)
				}
				if interSerial == nil {
					interSerial = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), interSerial) {
					b.Fatalf("%s: interproc workers=%d artifacts differ from workers=1", spec.Name, w)
				}
			}
		}

		// Modeled analysis time must be monotone non-increasing in workers
		// for every (workload, mode, retrieval) curve.
		last := map[string]float64{}
		for _, rec := range records {
			key := rec.Workload + "/" + rec.Mode + "/" + rec.Retrieval
			if prev, ok := last[key]; ok && rec.ModeledSeconds > prev+1e-12 {
				b.Fatalf("%s: modeled %.9fs at %d workers worse than previous point %.9fs",
					key, rec.ModeledSeconds, rec.Workers, prev)
			}
			last[key] = rec.ModeledSeconds
		}

		// The heap retrieval must beat naive at every worker count (the
		// ablation only runs in intra mode).
		naiveOf := map[string]float64{}
		for _, rec := range records {
			if rec.Mode == "intra" && rec.Retrieval == "naive" {
				naiveOf[fmt.Sprintf("%s/%d", rec.Workload, rec.Workers)] = rec.ModeledSeconds
			}
		}
		for _, rec := range records {
			if rec.Mode != "intra" || rec.Retrieval != "heap" {
				continue
			}
			nv, ok := naiveOf[fmt.Sprintf("%s/%d", rec.Workload, rec.Workers)]
			if !ok {
				b.Fatalf("%s: missing naive arm at %d workers", rec.Workload, rec.Workers)
			}
			if rec.ModeledSeconds >= nv {
				b.Fatalf("%s at %d workers: heap modeled %.9fs does not beat naive %.9fs",
					rec.Workload, rec.Workers, rec.ModeledSeconds, nv)
			}
		}

		// Headline: clang's modeled heap-arm scaling across the sweep.
		find := func(workload, mode, retrieval string, w int) float64 {
			for _, rec := range records {
				if rec.Workload == workload && rec.Mode == mode && rec.Retrieval == retrieval && rec.Workers == w {
					return rec.ModeledSeconds
				}
			}
			return math.NaN()
		}
		s1, s16 := find("clang", "intra", "heap", 1), find("clang", "intra", "heap", 16)
		b.ReportMetric(s1/s16, "clangScale1to16x")
		b.ReportMetric(find("clang", "intra", "naive", 1)/s1, "clangNaiveVsHeapX")
		i1, i16 := find("clang", "interproc", "heap", 1), find("clang", "interproc", "heap", 16)
		b.ReportMetric(i1/i16, "clangInterScale1to16x")
		for _, spec := range workload.Catalog() {
			fmt.Printf("Table4 WPA sweep %-14s heap 1->16 workers: %8.3fms -> %7.3fms (%4.1fx); naive@1: %8.3fms; interproc 1->16: %8.3fms -> %7.3fms\n",
				spec.Name, 1e3*find(spec.Name, "intra", "heap", 1), 1e3*find(spec.Name, "intra", "heap", 16),
				find(spec.Name, "intra", "heap", 1)/find(spec.Name, "intra", "heap", 16),
				1e3*find(spec.Name, "intra", "naive", 1),
				1e3*find(spec.Name, "interproc", "heap", 1), 1e3*find(spec.Name, "interproc", "heap", 16))
		}

		f, err := os.Create("BENCH_wpa.json")
		if err != nil {
			b.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(map[string]any{
			"benchmark": "WPAScaling",
			"workers":   workerCounts,
			"modes":     []string{"intra", "interproc"},
			"records":   records,
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSPEC regenerates the §5.4 SPEC2017 results.
func BenchmarkSPEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := sweep(b)
		rep := &eval.Report{Results: ordered(results, specNames())}
		rep.SPECTable(os.Stdout)
		// Headline: average taken-branch reduction across SPEC.
		var sum float64
		var n int
		for _, name := range specNames() {
			if r := results[name]; r != nil {
				sum += eval.CounterRatio(r.BaseRun, r.PORun, "B2")
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n)-100, "avgB2delta%")
		}
	}
}

// BenchmarkFuncSplit reproduces the §4.6 function-splitting comparison:
// the call-based heuristic splitter versus basic-block-section splitting.
func BenchmarkFuncSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := workload.Clang()
		prog, err := workload.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		train := core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}
		optimized, _, err := core.PreparePGO(prog.Core, train, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		p := &core.Program{Name: spec.Name, Modules: optimized, Entry: "main"}

		run := func(opts core.Options, label string) *sim.Result {
			build, err := core.BuildBaseline(p, opts)
			if err != nil {
				b.Fatal(err)
			}
			mach, err := sim.Load(build.Binary)
			if err != nil {
				b.Fatal(err)
			}
			res, err := mach.Run(sim.Config{MaxInsts: 600_000_000})
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("§4.6 %-22s cycles=%d I1=%d T1=%d text=%dKB\n",
				label, res.Cycles, res.Counters.L1IMiss, res.Counters.ITLBMiss,
				build.Binary.Stats().Text/1024)
			return res
		}
		base := run(core.Options{}, "no splitting")
		heur := run(core.Options{HeuristicSplit: true}, "call-based splitting")

		prop, err := core.Optimize(p, train, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		mach, err := sim.Load(prop.Optimized.Binary)
		if err != nil {
			b.Fatal(err)
		}
		bbres, err := mach.Run(sim.Config{MaxInsts: 600_000_000})
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("§4.6 %-22s cycles=%d I1=%d T1=%d text=%dKB\n",
			"bb-section splitting", bbres.Cycles, bbres.Counters.L1IMiss, bbres.Counters.ITLBMiss,
			prop.Optimized.Binary.Stats().Text/1024)

		heurGain := 1 - float64(heur.Cycles)/float64(base.Cycles)
		bbGain := 1 - float64(bbres.Cycles)/float64(base.Cycles)
		b.ReportMetric(100*heurGain, "heuristicGain%")
		b.ReportMetric(100*bbGain, "bbSectionGain%")
		if heurGain > 0 {
			b.ReportMetric(bbGain/heurGain, "bbVsHeuristicX")
		}
	}
}

// BenchmarkInterProc reproduces the §4.7 inter-procedural layout study:
// performance delta over intra-function layout and the WPA time ratio.
func BenchmarkInterProc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := workload.Clang()
		for _, inter := range []bool{false, true} {
			cfg := eval.Config{Spec: spec, InterProc: inter, Workstation: true}
			res, err := eval.RunWorkload(cfg)
			if err != nil {
				b.Fatal(err)
			}
			label := "intra"
			if inter {
				label = "inter"
			}
			fmt.Printf("§4.7 %-6s speedup=%+.2f%% I1=%.1f%% T1=%.1f%% layout=%v\n",
				label, eval.Speedup(res.BaseRun, res.PORun),
				eval.CounterRatio(res.BaseRun, res.PORun, "I1"),
				eval.CounterRatio(res.BaseRun, res.PORun, "T1"),
				res.Propeller.WPAStats.LayoutWall)
			if inter {
				b.ReportMetric(eval.Speedup(res.BaseRun, res.PORun), "interSpeedup%")
				b.ReportMetric(float64(res.Propeller.WPAStats.LayoutWall.Microseconds()), "layout-us")
			}
		}
	}
}

// BenchmarkAblationClusters reproduces the §4.1 argument for clustered
// basic block sections over one-section-per-block.
func BenchmarkAblationClusters(b *testing.B) {
	prog, err := workload.Generate(workload.MySQL())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var listBytes, allBytes, listSecs, allSecs int64
		for _, m := range prog.Core.Modules {
			objList, err := codegen.Compile(m, codegen.Options{Mode: codegen.ModeLabels})
			if err != nil {
				b.Fatal(err)
			}
			objAll, err := codegen.Compile(m, codegen.Options{Mode: codegen.ModeAll})
			if err != nil {
				b.Fatal(err)
			}
			listBytes += objList.Stats().Total()
			allBytes += objAll.Stats().Total()
			listSecs += int64(len(objList.Sections))
			allSecs += int64(len(objAll.Sections))
		}
		fmt.Printf("§4.1 clustered sections: %d sections, %.1fMB objects; per-block sections: %d sections, %.1fMB objects (%.2fx)\n",
			listSecs, memmodel.MB(listBytes), allSecs, memmodel.MB(allBytes),
			float64(allBytes)/float64(listBytes))
		b.ReportMetric(float64(allBytes)/float64(listBytes), "objBloatX")
	}
}

// BenchmarkAblationRelax reproduces the §4.2 linker relaxation effect.
func BenchmarkAblationRelax(b *testing.B) {
	prog, err := workload.Generate(workload.MySQL())
	if err != nil {
		b.Fatal(err)
	}
	var objs []*objfile.Object
	for _, m := range prog.Core.Modules {
		obj, err := codegen.Compile(m, codegen.Options{Mode: codegen.ModeAll})
		if err != nil {
			b.Fatal(err)
		}
		objs = append(objs, obj)
	}
	for i := 0; i < b.N; i++ {
		binRelax, stRelax, err := linker.Link(objs, linker.Config{})
		if err != nil {
			b.Fatal(err)
		}
		binNo, _, err := linker.Link(objs, linker.Config{NoRelax: true})
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("§4.2 relaxation: deleted %d fall-through jumps, shrunk %d branches, saved %dKB (text %dKB -> %dKB)\n",
			stRelax.JumpsDeleted, stRelax.BranchesShrunk, stRelax.BytesSaved/1024,
			int64(len(binNo.Text))/1024, int64(len(binRelax.Text))/1024)
		b.ReportMetric(float64(stRelax.BytesSaved), "bytesSaved")
	}
}

// BenchmarkAblationExtTSP compares the naive quadratic merge retrieval
// against the heap-based logarithmic retrieval (§4.7).
func BenchmarkAblationExtTSP(b *testing.B) {
	// A large flat CFG stresses merge retrieval.
	g := &exttsp.Graph{}
	const n = 1200
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, exttsp.Node{Size: 16 + int64(i%48), Count: uint64(1 + i%97)})
	}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, exttsp.Edge{Src: i, Dst: i + 1, Weight: uint64(1 + (i*7)%100)})
		if i%3 == 0 {
			g.Edges = append(g.Edges, exttsp.Edge{Src: i, Dst: (i + 17) % n, Weight: uint64(1 + i%13)})
		}
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exttsp.Layout(g, exttsp.Options{ForcedFirst: 0}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exttsp.Layout(g, exttsp.Options{ForcedFirst: 0, UseHeap: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationColdCache reproduces the §3.4 cold-object reuse claim:
// Phase-4 relinks rebuild only hot objects.
func BenchmarkAblationColdCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := sweep(b)
		for _, name := range wscNames() {
			r := results[name]
			if r == nil {
				continue
			}
			p := r.Propeller
			fmt.Printf("§3.4 %-10s rebuilt %d of %d objects (%.0f%% cold reused); relink backends %.1fs vs full %.1fs\n",
				name, p.HotModules, p.HotModules+p.ColdModules,
				100*(1-p.HotFraction), p.Optimized.Backends, p.Metadata.Backends)
		}
		if r := results["search"]; r != nil {
			b.ReportMetric(100*r.Propeller.HotFraction, "hotObj%")
		}
	}
}

// BenchmarkPrefetch exercises the §3.5 extension: profile-guided software
// prefetch insertion on a streaming kernel.
func BenchmarkPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		train := core.RunSpec{MaxInsts: 40_000_000, LBRPeriod: 211}
		run := func(opts core.Options) *sim.Result {
			res, err := core.Optimize(streamProgram(), train, opts)
			if err != nil {
				b.Fatal(err)
			}
			mach, err := sim.Load(res.Optimized.Binary)
			if err != nil {
				b.Fatal(err)
			}
			out, err := mach.Run(sim.Config{MaxInsts: 40_000_000})
			if err != nil {
				b.Fatal(err)
			}
			return out
		}
		base := run(core.Options{})
		pf := run(core.Options{SoftwarePrefetch: true})
		if base.Exit != pf.Exit {
			b.Fatal("prefetch changed semantics")
		}
		fmt.Printf("§3.5 prefetch: L1d misses %d -> %d, cycles %d -> %d (%+.2f%%)\n",
			base.Counters.L1DMiss, pf.Counters.L1DMiss, base.Cycles, pf.Cycles,
			100*(1-float64(pf.Cycles)/float64(base.Cycles)))
		b.ReportMetric(100*(1-float64(pf.Counters.L1DMiss)/float64(base.Counters.L1DMiss)), "missReduction%")
	}
}

// streamProgram is the §3.5 victim: a loop streaming a 1MB array.
func streamProgram() *core.Program {
	m := ir.NewModule("stream")
	const arrayBytes = 1 << 20
	m.AddGlobal(&ir.Global{Name: "arr", Size: arrayBytes})
	f := m.NewFunc("main", 0)
	entry := f.Entry()
	outer := f.NewBlock()
	loop := f.NewBlock()
	check := f.NewBlock()
	done := f.NewBlock()
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: 0, Imm: 0})
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: 2, Imm: 0})
	entry.Jump(outer)
	outer.Emit(ir.Inst{Op: isa.OpMovI64, A: 3, Sym: "arr"})
	outer.Emit(ir.Inst{Op: isa.OpMovI64, A: 4, Sym: "arr", Imm: arrayBytes})
	outer.Jump(loop)
	loop.Emit(ir.Inst{Op: isa.OpLoad, A: 3, B: 5, Imm: 0})
	loop.Emit(ir.Inst{Op: isa.OpAdd, A: 0, B: 5})
	loop.Emit(ir.Inst{Op: isa.OpAddI, A: 3, Imm: 64})
	loop.Emit(ir.Inst{Op: isa.OpCmp, A: 3, B: 4})
	loop.Branch(isa.CondLT, loop, check)
	check.Emit(ir.Inst{Op: isa.OpAddI, A: 2, Imm: 1})
	check.Emit(ir.Inst{Op: isa.OpCmpI, A: 2, Imm: 6})
	check.Branch(isa.CondLT, outer, done)
	done.Halt()
	return &core.Program{Name: "stream", Modules: []*ir.Module{m}}
}

// BenchmarkSimulator measures raw simulator throughput (context for all
// other numbers).
func BenchmarkSimulator(b *testing.B) {
	prog, err := workload.Generate(workload.Tiny())
	if err != nil {
		b.Fatal(err)
	}
	build, err := core.BuildBaseline(prog.Core, core.Options{Executor: buildsys.Workstation()})
	if err != nil {
		b.Fatal(err)
	}
	mach, err := sim.Load(build.Binary)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := mach.Run(sim.Config{MaxInsts: 50_000_000})
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// simSpeedRecord is one row of the BENCH_simspeed.json artifact. Every
// value depends on the machine the benchmark ran on, so all keys carry
// the "measured" prefix that keeps them out of the benchdiff gate; the
// CI bench-smoke step asserts their presence, not their values.
type simSpeedRecord struct {
	Mode                    string  `json:"mode"` // "plain", "lbr" or "stream"
	Insts                   uint64  `json:"measuredInsts"`
	Samples                 uint64  `json:"measuredSamples"`
	MeasuredSeconds         float64 `json:"measuredSeconds"`
	MeasuredMInstsPerSec    float64 `json:"measuredMInstsPerSec"`
	MeasuredAllocsPerSample float64 `json:"measuredAllocsPerSample"`
}

// BenchmarkSimSpeed is the raw-speed headline for the shared-decode
// simulator: instruction throughput with sampling off ("plain"), with
// materialized LBR sampling ("lbr"), and with the streaming OnSample
// path ("stream"), plus the marginal heap allocations per LBR sample.
// The chunked sample arena and the streaming scratch buffer make the
// per-sample steady state allocation-free, so the marginal allocs per
// sample must stay (near) zero — the hard 0-allocs pin lives in
// internal/sim's AllocsPerRun test; here the benchmark reports the
// observed marginal rate and fails only if it drifts above 0.01
// (arena block refills amortize to ~1e-4). Writes BENCH_simspeed.json,
// a CI bench-smoke artifact.
func BenchmarkSimSpeed(b *testing.B) {
	prog, err := workload.Generate(workload.Tiny())
	if err != nil {
		b.Fatal(err)
	}
	build, err := core.BuildBaseline(prog.Core, core.Options{Executor: buildsys.Workstation()})
	if err != nil {
		b.Fatal(err)
	}
	mach, err := sim.Load(build.Binary)
	if err != nil {
		b.Fatal(err)
	}

	const runInsts = 50_000_000
	baseCfg := func(mode string, counted *uint64) sim.Config {
		cfg := sim.Config{MaxInsts: runInsts}
		switch mode {
		case "lbr":
			cfg.LBRPeriod = 211
		case "stream":
			cfg.LBRPeriod = 211
			cfg.OnSample = func(profile.Sample) error {
				*counted++
				return nil
			}
		}
		return cfg
	}

	// Marginal allocations per sample: allocation count difference
	// between a sparsely and a densely sampled run of the same full
	// execution, divided by the extra samples — one-time state
	// (registers, memory image, LBR ring, first arena block) cancels
	// out because both probes retire the identical instruction stream.
	marginalAllocs := func(mode string) float64 {
		var samples [2]uint64
		var allocs [2]float64
		for i, period := range []uint64{997, 101} {
			var streamed uint64
			cfg := baseCfg(mode, &streamed)
			cfg.LBRPeriod = period
			allocs[i] = testing.AllocsPerRun(1, func() {
				streamed = 0
				res, err := mach.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Profile != nil {
					streamed = uint64(len(res.Profile.Samples))
				}
			})
			samples[i] = streamed
		}
		if samples[1] <= samples[0] {
			b.Fatalf("%s: no marginal samples (%d -> %d)", mode, samples[0], samples[1])
		}
		return (allocs[1] - allocs[0]) / float64(samples[1]-samples[0])
	}

	allocsOf := map[string]float64{}
	for _, mode := range []string{"lbr", "stream"} {
		allocsOf[mode] = marginalAllocs(mode)
		if allocsOf[mode] > 0.01 {
			b.Fatalf("%s: %.4f marginal allocs/sample, want <= 0.01", mode, allocsOf[mode])
		}
	}

	b.ResetTimer()
	var records []simSpeedRecord
	var totalInsts uint64
	for iter := 0; iter < b.N; iter++ {
		records = records[:0]
		for _, mode := range []string{"plain", "lbr", "stream"} {
			var streamed uint64
			cfg := baseCfg(mode, &streamed)
			start := time.Now()
			res, err := mach.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			el := time.Since(start).Seconds()
			if res.Profile != nil {
				streamed = uint64(len(res.Profile.Samples))
			}
			records = append(records, simSpeedRecord{
				Mode:                    mode,
				Insts:                   res.Insts,
				Samples:                 streamed,
				MeasuredSeconds:         el,
				MeasuredMInstsPerSec:    float64(res.Insts) / el / 1e6,
				MeasuredAllocsPerSample: allocsOf[mode],
			})
			totalInsts += res.Insts
		}
	}
	for _, rec := range records {
		fmt.Printf("SimSpeed %-6s %6.2f MInst/s  samples=%-6d  allocs/sample=%.5f\n",
			rec.Mode, rec.MeasuredMInstsPerSec, rec.Samples, rec.MeasuredAllocsPerSample)
	}
	b.ReportMetric(float64(totalInsts)/b.Elapsed().Seconds()/1e6, "Minst/s")

	f, err := os.Create("BENCH_simspeed.json")
	if err != nil {
		b.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(map[string]any{
		"benchmark": "SimSpeed",
		"modes":     []string{"plain", "lbr", "stream"},
		"records":   records,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFleetProf runs the fleet-collection scaling sweep: hosts 1-64
// x ingest shards 1-8 x transport loss rates, on the tiny workload. Each
// cell replays the same per-host LBR profiles through a fresh sharded
// ingestion service and reports the modeled collection+ingestion
// makespan. It writes BENCH_fleetprof.json (the CI bench-smoke artifact)
// and fails if the makespan is not monotone non-increasing in shard count
// at fixed (hosts, loss), or if the merged fleet profile is not
// bit-identical across every shard count and loss rate at a given host
// count — the determinism contract of the ingestion tier.
func BenchmarkFleetProf(b *testing.B) {
	for iter := 0; iter < b.N; iter++ {
		res, err := eval.FleetSweep()
		if err != nil {
			b.Fatal(err)
		}
		points := res.Points

		// Makespan monotone non-increasing in shards within each
		// (hosts, loss) curve; merged profile identical across the whole
		// (shards x loss) grid at fixed hosts.
		lastSpan := map[string]float64{}
		shaOf := map[int]string{}
		for _, pt := range points {
			curve := fmt.Sprintf("hosts=%d/loss=%g", pt.Hosts, pt.LossRate)
			if prev, ok := lastSpan[curve]; ok && pt.MakespanSeconds > prev+1e-12 {
				b.Fatalf("%s: makespan %.9fs at %d shards worse than previous point %.9fs",
					curve, pt.MakespanSeconds, pt.Shards, prev)
			}
			lastSpan[curve] = pt.MakespanSeconds
			if want, ok := shaOf[pt.Hosts]; !ok {
				shaOf[pt.Hosts] = pt.MergedSHA256
			} else if pt.MergedSHA256 != want {
				b.Fatalf("hosts=%d shards=%d loss=%g: merged profile differs from shards=1 lossless",
					pt.Hosts, pt.Shards, pt.LossRate)
			}
			if pt.LossRate > 0 && pt.Hosts >= 4 && pt.LostDeliveries == 0 {
				b.Fatalf("hosts=%d loss=%g: expected lost deliveries", pt.Hosts, pt.LossRate)
			}
		}

		// Headline: 64-host ingestion scaling from 1 to 8 shards.
		find := func(hosts, shards int, loss float64) float64 {
			for _, pt := range points {
				if pt.Hosts == hosts && pt.Shards == shards && pt.LossRate == loss {
					return pt.MakespanSeconds
				}
			}
			return math.NaN()
		}
		b.ReportMetric(find(64, 1, 0)/find(64, 8, 0), "fleet64Scale1to8x")
		for _, hosts := range res.Hosts {
			fmt.Printf("FleetProf sweep hosts=%-3d shards 1->8: %8.3fms -> %8.3fms (%4.2fx); with 20%% loss: %8.3fms -> %8.3fms\n",
				hosts, 1e3*find(hosts, 1, 0), 1e3*find(hosts, 8, 0), find(hosts, 1, 0)/find(hosts, 8, 0),
				1e3*find(hosts, 1, 0.2), 1e3*find(hosts, 8, 0.2))
		}

		writeArtifact(b, "BENCH_fleetprof.json", res.WriteBenchJSON)
	}
}

// BenchmarkProfSvc runs the continuous profile-build service's iterative
// stability study: K generations of profile → relink → redeploy on the
// tiny workload, replayed under three ingestion configurations (serial,
// sharded, faulty transport). GenerationSweep already enforces the
// stability contract — monotone non-decreasing speedup, a byte-identical
// layout fixed point, one decision sequence across all cells — so a
// violation fails the benchmark. It writes BENCH_profsvc.json (the CI
// bench-smoke artifact, grepped for `"fixed_point": true`).
func BenchmarkProfSvc(b *testing.B) {
	for iter := 0; iter < b.N; iter++ {
		res, err := eval.GenerationSweep()
		if err != nil {
			b.Fatal(err)
		}
		curves := res.Curves
		if len(curves) == 0 {
			b.Fatal("empty sweep")
		}
		for _, c := range curves {
			if !c.FixedPoint || c.FixedPointGen > res.Generations {
				b.Fatalf("%s shards=%d loss=%g: fixed point %v at gen %d, want within %d",
					c.Workload, c.Shards, c.LossRate, c.FixedPoint, c.FixedPointGen, res.Generations)
			}
			if c.FinalSpeedupPct <= 0 {
				b.Fatalf("%s shards=%d loss=%g: final speedup %.3f%%, want > 0",
					c.Workload, c.Shards, c.LossRate, c.FinalSpeedupPct)
			}
		}
		ref := curves[0]
		b.ReportMetric(ref.FinalSpeedupPct, "finalSpeedup%")
		b.ReportMetric(float64(ref.FixedPointGen), "fixedPointGen")
		fmt.Printf("ProfSvc %s: %d generations, fixed point at gen %d, final speedup %.2f%% (baseline %d cycles)\n",
			ref.Workload, len(ref.Generations), ref.FixedPointGen, ref.FinalSpeedupPct, ref.BaselineCycles)
		for _, g := range ref.Generations {
			marker := " "
			if g.Adopted {
				marker = "*"
			}
			fmt.Printf("  gen %d%s: profiled %.10s.. candidate %.10s.. deployed %.10s.. speedup %6.2f%% fixed=%v\n",
				g.Index, marker, g.ProfiledBuildID, g.CandidateBuildID, g.DeployedBuildID,
				g.SpeedupPct, g.FixedPoint)
		}

		writeArtifact(b, "BENCH_profsvc.json", res.WriteBenchJSON)
	}
}

// BenchmarkIncremental replays a developer edit against warm
// content-keyed analysis and relink caches (edit fraction x WPA workers,
// cold vs warm): a 1%-of-functions edit must re-run Ext-TSP on a few
// percent of the sampled functions, reproduce cc_prof.txt/ld_prof.txt
// and the optimized binary byte-identically, and cut the modeled warm
// relink makespan to a quarter of cold. It writes BENCH_incr.json (the
// CI incr-smoke artifact, grepped for `"ok": true` in its smoke block).
func BenchmarkIncremental(b *testing.B) {
	for iter := 0; iter < b.N; iter++ {
		res, err := eval.IncrementalSweep(eval.IncrementalSweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		smoke := res.Smoke()
		if !smoke.OK {
			b.Fatalf("incremental smoke contract violated: %+v (stationary agg=%v global=%v)",
				smoke, res.StationaryAggregateHit, res.StationaryGlobalHit)
		}
		// The sweep's hit arithmetic must reconcile with the cache's own
		// counters: the recorded warm cell's hits are the cache's hits.
		if res.CacheStats.Hits == 0 || res.CacheStats.Misses == 0 {
			b.Fatalf("cache stats did not register the sweep: %+v", res.CacheStats)
		}

		fmt.Printf("Incremental (%s, %d modeled slots): stationary replay hit agg=%v global=%v\n",
			res.Workload, res.Slots, res.StationaryAggregateHit, res.StationaryGlobalHit)
		fmt.Printf("%9s %8s %7s %7s %8s %8s %7s %10s %10s %7s %6s\n",
			"editFrac", "workers", "edited", "hits", "misses", "relaid", "hitRate",
			"coldRelink", "warmRelink", "ratio", "ident")
		for _, c := range res.Cells {
			ident := c.IdenticalArtifacts && c.IdenticalBinary
			fmt.Printf("%9.2f %8d %7d %7d %8d %8d %6.1f%% %9.2fs %9.2fs %6.1f%% %6v\n",
				c.EditFrac, c.Workers, c.EditedFuncs, c.FuncLayoutHits, c.FuncLayoutMisses,
				c.RelaidFuncs, 100*c.HitRate, c.ColdRelinkMakespan, c.WarmRelinkMakespan,
				100*c.WarmColdRelinkRatio, ident)
		}
		b.ReportMetric(100*smoke.HitRate, "hitRate%")
		b.ReportMetric(100*smoke.RelaidFrac, "relaid%")

		writeArtifact(b, "BENCH_incr.json", res.WriteBenchJSON)
	}
}

// BenchmarkPolicySearch runs the automated layout-policy search across
// the whole workload catalog — the five default policies as full-fidelity
// anchors (the fixed pass), then the (1+λ) evolutionary and
// successive-halving strategies over Ext-TSP params, discrete knobs, and
// per-function policy mixes. It writes two CI bench-smoke artifacts, both
// grepped for `"ok": true`: the fixed pass's leaderboard,
// BENCH_layout.json (also grepped for every default policy name), and the
// BENCH_search.json journal. The leaderboard's contract requires every
// default policy raced everywhere, artifacts byte-identical at every
// replay worker count, and at least one non-default policy beating default
// Ext-TSP in modeled cycles on some workload; the journal's, the learned
// table matching or beating the best fixed policy on every workload and
// beating it outright on at least three.
func BenchmarkPolicySearch(b *testing.B) {
	for iter := 0; iter < b.N; iter++ {
		evs, err := policysearch.NewEvaluators(workload.Catalog(), core.Budget{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := policysearch.Search(policysearch.Config{Seed: 1}, evs)
		if err != nil {
			b.Fatal(err)
		}
		lb := res.Leaderboard()
		if smoke := lb.Smoke(); !smoke.OK {
			b.Fatalf("layout leaderboard smoke contract violated: %+v", smoke)
		}
		smoke := res.SmokeCheck(3)
		if !smoke.OK {
			b.Fatalf("policy search smoke contract violated: %+v", smoke)
		}

		fmt.Printf("Layout leaderboard: %d policies x %d workloads (workers %v)\n",
			len(lb.Policies), len(lb.Leaders), lb.Workers)
		fmt.Printf("%-14s %-10s %12s %10s %9s %8s %9s %8s\n",
			"workload", "policy", "cycles", "l1iMiss", "itlbMiss", "taken", "speedup", "vsDflt")
		for _, c := range lb.Cells {
			fmt.Printf("%-14s %-10s %12d %10d %9d %8d %8.2f%% %7.2f%%\n",
				c.Workload, c.Policy, c.Cycles, c.L1IMiss, c.ITLBMiss, c.TakenBranches,
				c.SpeedupPct, c.DeltaVsDefaultPct)
		}
		wins := 0
		for _, l := range lb.Leaders {
			if l.Policy != "exttsp" {
				wins++
			}
			fmt.Printf("leader %-14s: %-10s %12d cycles (margin %.2f%% over default)\n",
				l.Workload, l.Policy, l.Cycles, l.MarginPct)
		}
		b.ReportMetric(float64(wins), "nonDefaultWins")

		fmt.Printf("PolicySearch: seed %d, strategies %v\n", res.Seed, res.Strategies)
		fmt.Printf("%-14s %-12s %12s %-22s %12s %8s %6s %6s %5s %5s\n",
			"workload", "bestFixed", "cycles", "learned", "cycles", "gain", "full", "cheap", "hits", "prune")
		var bestGain float64
		for _, w := range res.Workloads {
			if w.GainVsFixedPct > bestGain {
				bestGain = w.GainVsFixedPct
			}
			fmt.Printf("%-14s %-12s %12d %-22s %12d %7.2f%% %6d %6d %5d %5d\n",
				w.Workload, w.BestFixed.Policy, w.BestFixed.Cycles,
				w.Learned.Policy.Name, w.LearnedCycles, w.GainVsFixedPct,
				w.Stats.FullEvals, w.Stats.CheapEvals, w.Stats.CacheHits, w.Stats.Pruned)
		}
		b.ReportMetric(float64(smoke.StrictWins), "strictWins")
		b.ReportMetric(bestGain, "bestGain%")

		writeArtifact(b, "BENCH_layout.json", lb.WriteBenchJSON)
		writeArtifact(b, "BENCH_search.json", func(w io.Writer) error { return res.WriteBenchJSON(w, 3) })
	}
}

// writeArtifact writes one BENCH_*.json file through write, failing b on
// any error, the file's Close included.
func writeArtifact(b *testing.B, name string, write func(io.Writer) error) {
	f, err := os.Create(name)
	if err != nil {
		b.Fatal(err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPolicySearchSmoke is the CI search-smoke job's teeth: a tiny
// search budget on a three-workload subset, run at two pool widths, must
// produce byte-identical journals (the bit-reproducibility contract) and
// a learned table that never falls below the best fixed policy. It
// deliberately writes no artifact — BenchmarkPolicySearch owns
// BENCH_search.json and both run under `-bench=.` in the same directory.
func BenchmarkPolicySearchSmoke(b *testing.B) {
	specs := []workload.Spec{workload.Clang(), workload.MySQL(), workload.Spanner()}
	cfg := policysearch.Config{Seed: 2, Generations: 1, Lambda: 3, Rungs: 2, RungWidth: 6}
	for iter := 0; iter < b.N; iter++ {
		var journals [][]byte
		for _, workers := range []int{0, 1} {
			evs, err := policysearch.NewEvaluators(specs, core.Budget{})
			if err != nil {
				b.Fatal(err)
			}
			c := cfg
			c.Workers = workers
			res, err := policysearch.Search(c, evs)
			if err != nil {
				b.Fatal(err)
			}
			if smoke := res.SmokeCheck(0); !smoke.OK {
				b.Fatalf("search smoke subset contract violated (workers=%d): %+v", workers, smoke)
			}
			var buf bytes.Buffer
			if err := res.WriteBenchJSON(&buf, 0); err != nil {
				b.Fatal(err)
			}
			journals = append(journals, buf.Bytes())
		}
		reproducible := bytes.Equal(journals[0], journals[1])
		if !reproducible {
			b.Fatal("search journals diverged across pool widths for one seed")
		}
		fmt.Printf("PolicySearchSmoke: %d workloads, reproducible=%v, neverWorse=true\n", len(specs), reproducible)
		b.ReportMetric(1, "reproducible")
	}
}
