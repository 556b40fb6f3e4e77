// wsc-search runs the automated layout-policy search: it treats the
// analyze → relink → simulate pipeline of eval.LayoutEval as a
// deterministic fitness function and searches the policy space — Ext-TSP
// scoring parameters, the discrete knobs, and per-function policy mixes
// — emitting a learned per-workload policy table.
//
// Usage:
//
//	wsc-search                                  # full catalog, prints the results
//	wsc-search -o search.json                   # also write the search journal
//	wsc-search -set wsc -seed 3                 # subset, different seed
//	wsc-search -table learned.json              # also write the -layout-table file
//	wsc-search -strategy halving -rung-width 24 # one strategy, wider rung
//	wsc-search -repro                           # re-run at workers=1 and compare fingerprints
//	wsc-search -trajectory                      # print each workload's champion trajectory
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"propeller/internal/core"
	"propeller/internal/policysearch"
	"propeller/internal/pprofutil"
	"propeller/internal/workload"
)

func main() {
	var (
		set        = flag.String("set", "all", "workload set: all | wsc | oss | spec | smoke | tiny")
		seed       = flag.Int64("seed", 1, "search seed (fixed seed => bit-identical journal at any worker count)")
		workers    = flag.Int("search-workers", 0, "candidate-evaluation pool width (0 = all cores; wall clock only, never results)")
		strategy   = flag.String("strategy", "", "comma-separated strategies (default: "+strings.Join(policysearch.StrategyNames(), ",")+")")
		gens       = flag.Int("generations", 0, "evolutionary generations (0 = default)")
		lambda     = flag.Int("lambda", 0, "offspring per generation (0 = default)")
		rungs      = flag.Int("rungs", 0, "successive-halving rungs (0 = default)")
		rungWidth  = flag.Int("rung-width", 0, "candidates entering the cheapest rung (0 = default)")
		eta        = flag.Int("eta", 0, "halving keep/promote factor (0 = default)")
		mixFuncs   = flag.Int("mix-funcs", 0, "hot functions eligible for per-function overrides (0 = default)")
		minWins    = flag.Int("min-wins", -1, "required strict wins over the best fixed policy (-1 = 3 on the full set, 0 otherwise)")
		tablePath  = flag.String("table", "", "also write the learned policy table (the wsc-propeller -layout-table format) to FILE")
		outPath    = flag.String("o", "", "also write the search journal (BENCH_search.json's format) to FILE")
		repro      = flag.Bool("repro", false, "re-run the search at workers=1 and require identical fingerprints")
		trajectory = flag.Bool("trajectory", false, "print each workload's best-so-far trajectory")
	)
	prof := pprofutil.Register()
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()

	cfg := policysearch.Config{
		Seed:        *seed,
		Workers:     *workers,
		Generations: *gens,
		Lambda:      *lambda,
		Rungs:       *rungs,
		RungWidth:   *rungWidth,
		Eta:         *eta,
		MixFuncs:    *mixFuncs,
	}
	if *strategy != "" {
		for _, name := range strings.Split(*strategy, ",") {
			name = strings.TrimSpace(name)
			if !knownStrategy(name) {
				fatalf("unknown strategy %q (have %s)", name, strings.Join(policysearch.StrategyNames(), ","))
			}
			cfg.Strategies = append(cfg.Strategies, name)
		}
	}
	if *minWins < 0 {
		if *set == "all" {
			*minWins = 3
		} else {
			*minWins = 0
		}
	}

	specs, err := workload.Set(*set)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "wsc-search: preparing %d workload evaluator(s)...\n", len(specs))
	res := runSearch(cfg, specs)
	if *repro {
		fmt.Fprintln(os.Stderr, "wsc-search: reproducibility check (workers=1)...")
		recfg := cfg
		recfg.Workers = 1
		again := runSearch(recfg, specs)
		if a, b := res.Fingerprint(), again.Fingerprint(); a != b {
			fatalf("reproducibility check FAILED: fingerprint %s != %s", a, b)
		}
		fmt.Fprintln(os.Stderr, "wsc-search: reproducible: fingerprints identical")
	}

	render(res, *trajectory)
	smoke := res.SmokeCheck(*minWins)
	fmt.Printf("smoke: neverWorse=%v strictWins=%d/%d ok=%v (fingerprint %.16s..)\n",
		smoke.NeverWorse, smoke.StrictWins, smoke.MinStrictWins, smoke.OK, res.Fingerprint())

	if *tablePath != "" {
		f, err := os.Create(*tablePath)
		if err != nil {
			fatalf("%v", err)
		}
		err = res.Table().WriteTable(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wsc-search: wrote %s\n", *tablePath)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("%v", err)
		}
		err = res.WriteBenchJSON(f, *minWins)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wsc-search: wrote %s\n", *outPath)
	}
	if !smoke.OK {
		fatalf("search smoke contract violated: %+v", smoke)
	}
}

func runSearch(cfg policysearch.Config, specs []workload.Spec) *policysearch.Result {
	evs, err := policysearch.NewEvaluators(specs, core.Budget{})
	if err != nil {
		fatalf("%v", err)
	}
	res, err := policysearch.Search(cfg, evs)
	if err != nil {
		fatalf("%v", err)
	}
	return res
}

func render(res *policysearch.Result, trajectory bool) {
	fmt.Printf("PolicySearch: seed %d, strategies %s\n", res.Seed, strings.Join(res.Strategies, "+"))
	fmt.Printf("%-14s %-12s %12s %-22s %12s %8s %7s %6s %6s %5s %5s\n",
		"workload", "bestFixed", "cycles", "learned", "cycles", "gain", "speedup", "full", "cheap", "hits", "prune")
	for _, w := range res.Workloads {
		fmt.Printf("%-14s %-12s %12d %-22s %12d %7.2f%% %6.2f%% %6d %6d %5d %5d\n",
			w.Workload, w.BestFixed.Policy, w.BestFixed.Cycles,
			w.Learned.Policy.Name, w.LearnedCycles, w.GainVsFixedPct, w.SpeedupPct,
			w.Stats.FullEvals, w.Stats.CheapEvals, w.Stats.CacheHits, w.Stats.Pruned)
	}
	if trajectory {
		for _, w := range res.Workloads {
			fmt.Printf("trajectory %s:\n", w.Workload)
			for _, p := range w.Stats.Trajectory {
				fmt.Printf("  eval %3d: %-22s (%-6s) %12d cycles\n", p.Eval, p.Policy, p.Origin, p.Cycles)
			}
		}
	}
}

func knownStrategy(name string) bool {
	for _, s := range policysearch.StrategyNames() {
		if s == name {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wsc-search: "+format+"\n", args...)
	os.Exit(1)
}
