// wsc-bench regenerates the paper's evaluation tables and figures over the
// scaled workload catalog (the CLI twin of `go test -bench=.`).
//
// Usage:
//
//	wsc-bench -all
//	wsc-bench -table 3
//	wsc-bench -fig 6 -set wsc
//	wsc-bench -fig 7              # clang heat maps
//	wsc-bench -spec
//	wsc-bench -table 5 -workers 8 # parallel WPA (§4.7; 0 = all cores)
//	wsc-bench -incr               # incremental edit-replay study, writes BENCH_incr.json
//	wsc-bench -layout             # layout-policy tournament, writes BENCH_layout.json
//	wsc-bench -layout -layout-policy pathclone,exttsp -set tiny
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"propeller/internal/eval"
	"propeller/internal/policysearch"
	"propeller/internal/pprofutil"
	"propeller/internal/workload"
)

func main() {
	var (
		all          = flag.Bool("all", false, "every table and figure")
		table        = flag.Int("table", 0, "regenerate Table N (2, 3, 5)")
		fig          = flag.Int("fig", 0, "regenerate Fig N (4, 5, 6, 7, 8, 9)")
		spec         = flag.Bool("spec", false, "SPEC2017 results (§5.4)")
		set          = flag.String("set", "all", "workload set: all | wsc | oss | spec | tiny")
		noBolt       = flag.Bool("no-bolt", false, "skip the BOLT comparator arm")
		workers      = flag.Int("workers", 0, "WPA parallelism: 0 = all cores, 1 = serial (§4.7; output is identical either way)")
		fleet        = flag.Bool("fleet", false, "fleet-collection scaling sweep (hosts x ingest shards x loss), writes BENCH_fleetprof.json")
		incr         = flag.Bool("incr", false, "incremental edit-replay sweep (edit fraction x WPA workers, cold vs warm caches), writes BENCH_incr.json")
		layout       = flag.Bool("layout", false, "layout-policy tournament across the workload catalog, writes BENCH_layout.json")
		layoutPolicy = flag.String("layout-policy", "", "comma-separated subset of policies for -layout (default: all of "+defaultPolicyNames()+")")
		search       = flag.Bool("search", false, "automated layout-policy search across the workload catalog, writes BENCH_search.json (see wsc-search for the full CLI)")
		searchSeed   = flag.Int64("search-seed", 1, "policy-search seed (with -search)")
	)
	prof := pprofutil.Register()
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsc-bench: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()
	if *fleet {
		runFleetSweep()
		return
	}
	if *incr {
		runIncrSweep()
		return
	}
	if *layout {
		runLayoutTournament(*set, *layoutPolicy)
		return
	}
	if *search {
		runPolicySearch(*set, *searchSeed)
		return
	}
	if !*all && *table == 0 && *fig == 0 && !*spec {
		flag.Usage()
		os.Exit(2)
	}

	specs := pickSet(*set)
	if *fig == 7 {
		specs = []workload.Spec{workload.Clang()}
	}
	var results []*eval.Result
	for _, s := range specs {
		fmt.Fprintf(os.Stderr, "wsc-bench: evaluating %s...\n", s.Name)
		cfg := eval.Config{
			Spec:        s,
			RunBolt:     !*noBolt,
			Heatmaps:    *fig == 7 || *all,
			Workstation: !s.Integrity && s.Name != "search",
			WPAWorkers:  *workers,
		}
		res, err := eval.RunWorkload(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsc-bench: %s: %v\n", s.Name, err)
			os.Exit(1)
		}
		results = append(results, res)
	}
	rep := &eval.Report{Results: results}
	w := os.Stdout
	switch {
	case *all:
		rep.All(w)
		fmt.Fprintln(w)
		rep.Fig7(w)
	case *table == 2:
		rep.Table2(w)
	case *table == 3:
		rep.Table3(w)
	case *table == 5:
		rep.Table5(w)
	case *fig == 4:
		rep.Fig4(w)
	case *fig == 5:
		rep.Fig5(w)
	case *fig == 6:
		rep.Fig6(w)
	case *fig == 7:
		rep.Fig7(w)
	case *fig == 8:
		rep.Fig8(w)
	case *fig == 9:
		rep.Fig9(w)
	case *spec:
		rep.SPECTable(w)
	default:
		fmt.Fprintf(os.Stderr, "wsc-bench: nothing to do for -table %d / -fig %d\n", *table, *fig)
		os.Exit(2)
	}
}

// runFleetSweep regenerates the fleet ingestion scaling study (the
// BenchmarkFleetProf artifact): modeled collection+ingestion makespan
// over hosts 1-64 x shards 1-8 x transport loss rates.
func runFleetSweep() {
	fmt.Fprintln(os.Stderr, "wsc-bench: fleet-collection sweep (hosts x shards x loss)...")
	res, err := eval.FleetSweep()
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsc-bench: fleet sweep: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("fleet sweep over build %.16s..\n", res.BuildID)
	fmt.Printf("%6s %6s %6s %12s %10s %8s %8s\n", "hosts", "shards", "loss", "makespan", "batches", "lost", "dups")
	for _, pt := range res.Points {
		fmt.Printf("%6d %6d %6.2f %10.3fms %10d %8d %8d\n",
			pt.Hosts, pt.Shards, pt.LossRate, 1e3*pt.MakespanSeconds,
			pt.AcceptedBatches, pt.LostDeliveries, pt.DuplicateBatches)
	}
	writeArtifact("BENCH_fleetprof.json", res.WriteBenchJSON)
}

// runIncrSweep regenerates the incremental-build study (the
// BenchmarkIncremental artifact): replayed edits of several sizes against
// warm content-keyed analysis and relink caches, cold vs warm.
func runIncrSweep() {
	fmt.Fprintln(os.Stderr, "wsc-bench: incremental edit-replay sweep (edit fraction x workers)...")
	res, err := eval.IncrementalSweep(eval.IncrementalSweepConfig{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsc-bench: incremental sweep: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("incremental sweep on %s (%d modeled slots); stationary replay hit agg=%v global=%v\n",
		res.Workload, res.Slots, res.StationaryAggregateHit, res.StationaryGlobalHit)
	fmt.Printf("%9s %8s %7s %8s %8s %10s %10s %7s %6s\n",
		"editFrac", "workers", "edited", "hitRate", "relaid", "coldRelink", "warmRelink", "ratio", "ident")
	for _, c := range res.Cells {
		fmt.Printf("%9.2f %8d %7d %7.1f%% %8d %9.2fs %9.2fs %6.1f%% %6v\n",
			c.EditFrac, c.Workers, c.EditedFuncs, 100*c.HitRate, c.RelaidFuncs,
			c.ColdRelinkMakespan, c.WarmRelinkMakespan, 100*c.WarmColdRelinkRatio,
			c.IdenticalArtifacts && c.IdenticalBinary)
	}
	smoke := res.Smoke()
	if !smoke.OK {
		fmt.Fprintf(os.Stderr, "wsc-bench: incremental smoke contract violated: %+v\n", smoke)
		os.Exit(1)
	}
	writeArtifact("BENCH_incr.json", res.WriteBenchJSON)
}

func defaultPolicyNames() string {
	var names []string
	for _, p := range eval.DefaultLayoutPolicies() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ",")
}

// runLayoutTournament regenerates the layout-policy leaderboard (the
// BenchmarkLayoutTournament artifact): every named policy relinked and
// measured on the uarch model across the chosen workload set.
func runLayoutTournament(set, policyList string) {
	cfg := eval.LayoutTournamentConfig{}
	if set != "all" {
		cfg.Specs = pickSet(set)
	}
	if policyList != "" {
		for _, name := range strings.Split(policyList, ",") {
			name = strings.TrimSpace(name)
			pol, ok := eval.PolicyByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "wsc-bench: unknown layout policy %q (have %s)\n", name, defaultPolicyNames())
				os.Exit(2)
			}
			cfg.Policies = append(cfg.Policies, pol)
		}
	}
	fmt.Fprintln(os.Stderr, "wsc-bench: layout-policy tournament (policy x workload)...")
	res, err := eval.LayoutTournament(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsc-bench: layout tournament: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-14s %-10s %12s %10s %9s %9s %8s %8s\n",
		"workload", "policy", "cycles", "l1iMiss", "itlbMiss", "taken", "speedup", "vsDflt")
	for _, c := range res.Cells {
		fmt.Printf("%-14s %-10s %12d %10d %9d %9d %7.2f%% %7.2f%%\n",
			c.Workload, c.Policy, c.Cycles, c.L1IMiss, c.ITLBMiss, c.TakenBranches,
			c.SpeedupPct, c.DeltaVsDefaultPct)
	}
	for _, l := range res.Leaders {
		fmt.Printf("leader %-14s: %-10s %12d cycles (margin %.2f%% over default)\n",
			l.Workload, l.Policy, l.Cycles, l.MarginPct)
	}
	// The smoke contract is only meaningful over the full default field;
	// report it but fail only when the run was the default one.
	smoke := res.Smoke()
	if policyList == "" && set == "all" && !smoke.OK {
		fmt.Fprintf(os.Stderr, "wsc-bench: layout smoke contract violated: %+v\n", smoke)
		os.Exit(1)
	}
	writeArtifact("BENCH_layout.json", res.WriteBenchJSON)
}

// runPolicySearch regenerates the learned-policy study (the
// BenchmarkPolicySearch artifact): the automated search racing against
// the fixed tournament field, per workload. wsc-search is the
// full-featured CLI; this arm exists so the whole bench-smoke artifact
// set regenerates from one binary.
func runPolicySearch(set string, seed int64) {
	specs := pickSet(set)
	fmt.Fprintf(os.Stderr, "wsc-bench: layout-policy search over %d workload(s), seed %d...\n", len(specs), seed)
	evs, err := policysearch.NewEvaluators(specs, eval.LayoutTournamentConfig{Workers: []int{1}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsc-bench: policy search: %v\n", err)
		os.Exit(1)
	}
	res, err := policysearch.Search(policysearch.Config{Seed: seed}, evs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsc-bench: policy search: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-14s %-12s %12s %-22s %12s %8s\n",
		"workload", "bestFixed", "cycles", "learned", "cycles", "gain")
	for _, w := range res.Workloads {
		fmt.Printf("%-14s %-12s %12d %-22s %12d %7.2f%%\n",
			w.Workload, w.BestFixed.Policy, w.BestFixed.Cycles,
			w.Learned.Policy.Name, w.LearnedCycles, w.GainVsFixedPct)
	}
	minWins := 0
	if set == "all" {
		minWins = 3
	}
	smoke := res.SmokeCheck(minWins)
	if !smoke.OK {
		fmt.Fprintf(os.Stderr, "wsc-bench: search smoke contract violated: %+v\n", smoke)
		os.Exit(1)
	}
	writeArtifact("BENCH_search.json", func(w io.Writer) error { return res.WriteBenchJSON(w, minWins) })
}

// writeArtifact writes one BENCH_*.json file through write and reports it,
// exiting on any error, the file's Close included.
func writeArtifact(name string, write func(io.Writer) error) {
	f, err := os.Create(name)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsc-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wsc-bench: wrote %s\n", name)
}

func pickSet(set string) []workload.Spec {
	switch set {
	case "all":
		return workload.Catalog()
	case "wsc":
		return workload.WSC()
	case "oss":
		return workload.OpenSource()
	case "spec":
		return workload.SPECInt()
	case "tiny":
		return []workload.Spec{workload.Tiny()}
	}
	fmt.Fprintf(os.Stderr, "wsc-bench: unknown set %q\n", set)
	os.Exit(2)
	return nil
}
