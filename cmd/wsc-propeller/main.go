// wsc-propeller is the end-to-end pipeline driver: it takes a workload (or
// a directory of IR modules from wsc-gen), runs the PGO+ThinLTO baseline
// build, then the four Propeller phases, and reports the improvement.
//
// Usage:
//
//	wsc-propeller -workload clang
//	wsc-propeller -ir-dir out/ -entry main
//	wsc-propeller -workload search -interproc -hugepages
//	wsc-propeller -workload search -interproc -workers 8
//	wsc-propeller -workload search -fleet-hosts 8 -fleet-shards 4
//
// -fleet-hosts switches Phase 3 to fleet-scale collection: the training
// run happens on N simulated hosts whose LBR sample batches stream
// through the sharded ingestion service (with the modeled transport's
// loss/duplication when -fleet-loss is set) before the merged profile
// reaches the analyzer. The ingestion /statusz snapshot is printed after
// the run.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"propeller/internal/core"
	"propeller/internal/eval"
	"propeller/internal/fleetprof"
	"propeller/internal/ir"
	"propeller/internal/layoutfile"
	"propeller/internal/memmodel"
	"propeller/internal/objfile"
	"propeller/internal/par"
	"propeller/internal/policysearch"
	"propeller/internal/pprofutil"
	"propeller/internal/sim"
	"propeller/internal/workload"
)

func main() {
	var (
		wl         = flag.String("workload", "", "generate this Table-2 workload")
		irDir      = flag.String("ir-dir", "", "read IR modules from this directory instead")
		entry      = flag.String("entry", "main", "entry symbol")
		interProc  = flag.Bool("interproc", false, "inter-procedural layout (§4.7)")
		doPrefetch = flag.Bool("prefetch", false, "§3.5 software prefetch insertion")
		hugePages  = flag.Bool("hugepages", false, "2M text pages")
		outDir     = flag.String("o", "", "write artifacts (binaries, cc_prof.txt, ld_prof.txt) here")
		trainMax   = flag.Uint64("train-insts", 400_000_000, "training run budget")
		evalMax    = flag.Uint64("eval-insts", 800_000_000, "measurement run budget")
		workers    = flag.Int("workers", 0, "WPA parallelism: 0 = all cores, 1 = serial (§4.7; output is identical either way)")
		fleetHosts = flag.Int("fleet-hosts", 0, "fleet collection: profile on N simulated hosts through the ingestion service (0 = single training run)")
		fleetShard = flag.Int("fleet-shards", 1, "ingestion service shard count (with -fleet-hosts)")
		fleetLoss  = flag.Float64("fleet-loss", 0, "transport delivery loss rate in [0,1) (with -fleet-hosts)")
		fleetMinS  = flag.Int64("fleet-min-samples", 0, "admission gate: minimum total accepted samples")
		statuszAt  = flag.String("statusz-addr", "", "serve the fleet ingestion /statusz snapshot over HTTP on this address, e.g. 127.0.0.1:8345 (with -fleet-hosts)")
		warm       = flag.Bool("warm", false, "edit-replay mode: re-run analysis+relink of a replayed -edit-frac edit against warm content-keyed caches (requires -workload)")
		editFrac   = flag.Float64("edit-frac", 0.01, "fraction of functions the replayed edit touches (with -warm)")
		layoutPol  = flag.String("layout-policy", "", "named layout policy from the default field: "+policyNames()+" (default: exttsp)")
		layoutTab  = flag.String("layout-table", "", "learned per-workload/per-function policy table (the wsc-search output format)")
	)
	prof := pprofutil.Register()
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()

	if *warm {
		runWarmReplay(*wl, *editFrac, *workers)
		return
	}

	prog, err := loadProgram(*wl, *irDir, *entry)
	if err != nil {
		fatalf("%v", err)
	}
	opts := core.Options{InterProc: *interProc, HugePages: *hugePages, SoftwarePrefetch: *doPrefetch}
	opts.WPA.Workers = *workers
	if *layoutPol != "" {
		pol, ok := eval.PolicyByName(*layoutPol)
		if !ok {
			fatalf("unknown layout policy %q (have: %s)", *layoutPol, policyNames())
		}
		usePolicy(&opts, pol)
		fmt.Printf("propeller: layout policy %s\n", pol.Name)
	}
	if *layoutTab != "" {
		if *layoutPol != "" {
			fatalf("-layout-table and -layout-policy are mutually exclusive")
		}
		pol, err := lookupTablePolicy(*layoutTab, prog.Name)
		if err != nil {
			fatalf("%v", err)
		}
		usePolicy(&opts, pol)
		fmt.Printf("propeller: learned layout policy %s for %s (%d per-function overrides)\n",
			pol.Name, prog.Name, len(pol.FuncPolicies))
	}
	if *fleetHosts > 0 {
		opts.Fleet = &core.FleetOptions{
			Hosts:    *fleetHosts,
			Shards:   *fleetShard,
			LossRate: *fleetLoss,
			DupRate:  *fleetLoss / 2,
			Gate:     fleetprof.Gate{MinSamples: *fleetMinS},
		}
		if *statuszAt != "" {
			opts.Fleet.OnService = serveStatusz(*statuszAt)
		}
	} else if *statuszAt != "" {
		fatalf("-statusz-addr requires -fleet-hosts")
	}
	train := core.RunSpec{MaxInsts: *trainMax, LBRPeriod: 211}

	fmt.Printf("propeller: PGO+ThinLTO baseline over %d modules...\n", len(prog.Modules))
	optimized, pgoStats, err := core.PreparePGO(prog, train, opts)
	if err != nil {
		fatalf("pgo: %v", err)
	}
	fmt.Printf("propeller: training ran %d insts; ThinLTO inlined %d calls (%d cross-module)\n",
		pgoStats.TrainRun.Insts, pgoStats.Imports.CallsInlined, pgoStats.Imports.CrossModule)
	p := &core.Program{Name: prog.Name, Modules: optimized, Entry: prog.Entry}

	base, err := core.BuildBaseline(p, opts)
	if err != nil {
		fatalf("baseline: %v", err)
	}
	evalCfg := sim.Config{MaxInsts: *evalMax}
	baseRes, err := core.Measure(base.Binary, evalCfg, nil)
	if err != nil {
		fatalf("baseline run: %v", err)
	}

	res, err := core.Optimize(p, train, opts)
	if err != nil {
		fatalf("optimize: %v", err)
	}
	optRes, err := core.Measure(res.Optimized.Binary, evalCfg, baseRes)
	if err != nil {
		fatalf("optimized run: %v", err)
	}
	fmt.Printf("\nphases: 2 (build+metadata): %.1fs, peak %.1fMB | 3 (profile+WPA): %.2fs, peak %.1fMB | 4 (relink): %.1fs, peak %.1fMB\n",
		res.Phase2.Makespan, memmodel.MB(res.Phase2.PeakMem),
		res.Phase3.Makespan, memmodel.MB(res.Phase3.PeakMem),
		res.Phase4.Makespan, memmodel.MB(res.Phase4.PeakMem))
	fmt.Printf("objects: %d hot rebuilt, %d cold reused from cache (%.0f%%)\n",
		res.HotModules, res.ColdModules, 100*(1-res.HotFraction))
	if res.IngestStats != nil {
		fmt.Printf("\nfleet collection (%d hosts, %d ingest shards, modeled makespan %.3fs):\n",
			opts.Fleet.Hosts, *fleetShard, res.IngestStats.ModeledMakespan(*fleetShard))
		res.IngestStats.WriteText(os.Stdout)
	}
	fmt.Printf("baseline : cycles=%d ipc=%.3f taken=%d l1i=%d itlb=%d\n",
		baseRes.Cycles, baseRes.IPC(), baseRes.Counters.TakenBranch, baseRes.Counters.L1IMiss, baseRes.Counters.ITLBMiss)
	fmt.Printf("propeller: cycles=%d ipc=%.3f taken=%d l1i=%d itlb=%d\n",
		optRes.Cycles, optRes.IPC(), optRes.Counters.TakenBranch, optRes.Counters.L1IMiss, optRes.Counters.ITLBMiss)
	fmt.Printf("improvement: %+.2f%%\n", 100*(1-float64(optRes.Cycles)/float64(baseRes.Cycles)))

	if *outDir != "" {
		if err := writeArtifacts(*outDir, res); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("artifacts written to %s\n", *outDir)
	}
}

func loadProgram(wl, irDir, entry string) (*core.Program, error) {
	if wl != "" {
		spec, err := workload.ByName(wl)
		if err != nil {
			return nil, err
		}
		prog, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		return prog.Core, nil
	}
	if irDir == "" {
		return nil, fmt.Errorf("need -workload or -ir-dir")
	}
	entries, err := os.ReadDir(irDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ir") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	p := &core.Program{Name: filepath.Base(irDir), Entry: entry}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(irDir, name))
		if err != nil {
			return nil, err
		}
		m, err := ir.DecodeModule(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p.Modules = append(p.Modules, m)
	}
	return p, nil
}

// runWarmReplay is the -warm mode: replay an editFrac-sized edit of the
// named workload against warm content-keyed analysis and relink caches
// and report the incremental accounting — what a developer's rebuild of a
// small change costs once the caches are hot.
func runWarmReplay(wl string, editFrac float64, workers int) {
	if wl == "" {
		fatalf("-warm requires -workload (the edit is replayed onto a regenerated program)")
	}
	spec, err := workload.ByName(wl)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("propeller: warm edit-replay on %s (%.1f%% of functions edited)...\n", wl, 100*editFrac)
	res, err := eval.IncrementalSweep(eval.IncrementalSweepConfig{
		Spec:      spec,
		EditFracs: []float64{editFrac},
		Workers:   []int{workers},
	})
	if err != nil {
		fatalf("warm replay: %v", err)
	}
	c := res.Cells[0]
	fmt.Printf("edit: %d functions touched; profile covers %d functions\n", c.EditedFuncs, c.SampledFuncs)
	fmt.Printf("analysis: %d layout hits, %d misses (%.1f%% hit rate); Ext-TSP re-ran on %d functions (%.1f%%)\n",
		c.FuncLayoutHits, c.FuncLayoutMisses, 100*c.HitRate, c.RelaidFuncs, 100*c.RelaidFrac)
	fmt.Printf("relink: %d/%d hot objects from cache; modeled makespan %.2fs warm vs %.2fs cold (%.1f%%)\n",
		c.HotReused, c.HotModules, c.WarmRelinkMakespan, c.ColdRelinkMakespan, 100*c.WarmColdRelinkRatio)
	fmt.Printf("artifacts byte-identical to cold: cc_prof/ld_prof %v, optimized binary %v\n",
		c.IdenticalArtifacts, c.IdenticalBinary)
	if !c.IdenticalArtifacts || !c.IdenticalBinary {
		fatalf("warm outputs diverged from cold")
	}
}

// usePolicy sets opts' layout fields from pol; a policy asking for
// inter-procedural layout turns it on, and none turns it off.
func usePolicy(opts *core.Options, pol eval.LayoutPolicy) {
	opts.InterProc = opts.InterProc || pol.InterProc
	opts.WPA.Policy = pol.Policy
	opts.WPA.FuncPolicies = pol.FuncPolicies
}

// lookupTablePolicy resolves the program's learned policy from a
// wsc-search -table file.
func lookupTablePolicy(path, name string) (eval.LayoutPolicy, error) {
	f, err := os.Open(path)
	if err != nil {
		return eval.LayoutPolicy{}, err
	}
	defer f.Close()
	table, err := policysearch.ReadTable(f)
	if err != nil {
		return eval.LayoutPolicy{}, err
	}
	pol, ok := table.For(name)
	if !ok {
		var have []string
		for wl := range table.Workloads {
			have = append(have, wl)
		}
		sort.Strings(have)
		return eval.LayoutPolicy{}, fmt.Errorf("layout table %s has no entry for workload %q (have: %s)",
			path, name, strings.Join(have, ", "))
	}
	return pol, nil
}

// policyNames lists the default layout policy field for flag help
// and error messages.
func policyNames() string {
	var names []string
	for _, p := range eval.DefaultLayoutPolicies() {
		names = append(names, p.Name)
	}
	return strings.Join(names, "|")
}

func writeArtifacts(dir string, res *core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "pm.wb"), objfile.EncodeBinary(res.Metadata.Binary), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "propeller.wb"), objfile.EncodeBinary(res.Optimized.Binary), 0o644); err != nil {
		return err
	}
	cc, ld, err := layoutfile.Render(res.Directives, res.Order)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cc_prof.txt"), cc, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "ld_prof.txt"), ld, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "prof.lbr"), res.Profile.AppendWire(nil), 0o644)
}

// serveStatusz starts an HTTP listener serving the fleet ingestion
// service's /statusz (the shared fleetprof.StatuszHandler) and returns the
// FleetOptions hook that points it at each collection run's service. The
// endpoint answers 503 until the first collection starts.
func serveStatusz(addr string) func(*fleetprof.Service) {
	var mu sync.Mutex
	var cur *fleetprof.Service
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		svc := cur
		mu.Unlock()
		if svc == nil {
			http.Error(w, "no fleet collection has started yet", http.StatusServiceUnavailable)
			return
		}
		svc.StatuszHandler().ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatalf("statusz listener: %v", err)
	}
	fmt.Printf("propeller: serving /statusz on http://%s/statusz\n", ln.Addr())
	par.Start(func() error { return http.Serve(ln, mux) })
	return func(s *fleetprof.Service) {
		mu.Lock()
		cur = s
		mu.Unlock()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wsc-propeller: "+format+"\n", args...)
	os.Exit(1)
}
