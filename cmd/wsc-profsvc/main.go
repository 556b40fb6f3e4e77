// wsc-profsvc drives the continuous profile-build service: it runs the
// profile → relink → redeploy loop on a workload for K generations,
// publishing each generation's fleet profile to the versioned profile
// store and adopting candidates only on strict improvement, then reports
// the convergence curve.
//
// Usage:
//
//	wsc-profsvc -workload tiny -generations 5
//	wsc-profsvc -workload tiny -shards 4 -workers-per-shard 2 -loss 0.25 -dup 0.25
//	wsc-profsvc -workload tiny -addr 127.0.0.1:0        # loop over the real HTTP API
//	wsc-profsvc -workload tiny -json curve.json
//
// With -addr the tool serves the profile-store HTTP API (POST /publish,
// GET /profile/{buildID}, GET /statusz) on that address and routes every
// generation's publish/fetch through it; the decision sequence must be
// identical to the in-process path. The server stays up briefly after the
// loop so the final /statusz can be scraped; without -addr everything is
// in-process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"

	"propeller/internal/core"
	"propeller/internal/fleetprof"
	"propeller/internal/par"
	"propeller/internal/profsvc"
	"propeller/internal/workload"
)

func main() {
	var (
		wl          = flag.String("workload", "tiny", "Table-2 workload to loop on")
		generations = flag.Int("generations", 5, "profile → relink → redeploy iterations")
		hosts       = flag.Int("hosts", 3, "simulated collector hosts per generation")
		shards      = flag.Int("shards", 1, "ingestion service shard count")
		workers     = flag.Int("workers-per-shard", 1, "ingest workers per shard")
		queueDepth  = flag.Int("queue-depth", 256, "per-shard ingest queue depth")
		loss        = flag.Float64("loss", 0, "transport delivery loss rate in [0,1)")
		dup         = flag.Float64("dup", 0, "transport duplication rate in [0,1)")
		seed        = flag.Uint64("seed", 11, "transport fault-model seed")
		trainInsts  = flag.Uint64("train-insts", 20_000_000, "profiling budget per host per generation")
		evalInsts   = flag.Uint64("eval-insts", 40_000_000, "measurement budget per candidate")
		interProc   = flag.Bool("interproc", false, "inter-procedural layout (§4.7)")
		minSamples  = flag.Int64("min-samples", 0, "admission: minimum aggregate samples (0 disables)")
		minHotFuncs = flag.Int("min-hot-funcs", 0, "admission: minimum distinct hot functions (0 disables)")
		minCoverage = flag.Float64("min-host-coverage", 0, "admission: minimum host coverage in [0,1] (0 disables)")
		minFresh    = flag.Float64("min-freshness", 0, "admission: minimum epoch/aggregate sample ratio (0 disables)")
		minOverlap  = flag.Float64("min-hot-overlap", 0, "admission: minimum hot-set overlap with the previous generation (0 disables)")
		addr        = flag.String("addr", "", "serve the profile-store HTTP API here and loop through it (empty = in-process)")
		jsonOut     = flag.String("json", "", "write the LoopResult as JSON to this file")
	)
	flag.Parse()

	prog, err := loadWorkload(*wl)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := profsvc.DriverConfig{
		Generations:     *generations,
		Hosts:           *hosts,
		Shards:          *shards,
		WorkersPerShard: *workers,
		QueueDepth:      *queueDepth,
		LossRate:        *loss,
		DupRate:         *dup,
		Seed:            *seed,
		TrainInsts:      *trainInsts,
		EvalInsts:       *evalInsts,
		Scorer: profsvc.Scorer{
			Gate: fleetprof.Gate{
				MinSamples:      *minSamples,
				MinHotFuncs:     *minHotFuncs,
				MinHostCoverage: *minCoverage,
			},
			MinFreshness:  *minFresh,
			MinHotOverlap: *minOverlap,
		},
		Opts: core.Options{InterProc: *interProc},
	}

	var svc *profsvc.Service
	if *addr != "" {
		store := profsvc.NewStore(profsvc.StoreConfig{})
		svc = profsvc.NewService(store)
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fatalf("listen: %v", err)
		}
		par.Start(func() error { return http.Serve(ln, svc.Handler()) })
		base := "http://" + ln.Addr().String()
		fmt.Printf("profsvc: serving profile API on %s (POST /publish, GET /profile/{buildID}, GET /statusz)\n", base)
		cfg.Store = store
		cfg.Service = svc
		cfg.Client = &profsvc.Client{BaseURL: base}
	}

	fmt.Printf("profsvc: %s — %d generations, %d hosts, %d shards (loss=%g dup=%g)\n",
		prog.Name, *generations, *hosts, *shards, *loss, *dup)
	res, err := profsvc.RunGenerations(prog, cfg)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("\nbaseline %s: %d cycles\n", short(res.BaselineBuildID), res.BaselineCycles)
	fmt.Printf("%-4s %-12s %-12s %-12s %9s %9s %5s %5s\n",
		"gen", "profiled", "candidate", "deployed", "cycles", "speedup", "gate", "adopt")
	for _, g := range res.Generations {
		mark := " "
		if g.Adopted {
			mark = "*"
		}
		gate := "open"
		if !g.GateOpen {
			gate = "shut"
		}
		fmt.Printf("%-4d %-12s %-12s %-12s %9d %8.2f%% %5s %4s%s\n",
			g.Index, short(g.ProfiledBuildID), short(g.CandidateBuildID), short(g.DeployedBuildID),
			g.DeployedCycles, g.SpeedupPct, gate, mark, fixedMark(g))
	}
	if res.FixedPoint {
		fmt.Printf("\nconverged: byte-identical fixed point at generation %d, final speedup %.2f%%\n",
			res.FixedPointGen, res.FinalSpeedupPct())
	} else {
		fmt.Printf("\nno fixed point within %d generations (final speedup %.2f%%)\n",
			len(res.Generations), res.FinalSpeedupPct())
	}
	fmt.Printf("store: epoch=%d builds=%d epochs=%d samples=%d published=%d evicted-epochs=%d decayed-drops=%d\n",
		res.Store.Epoch, res.Store.Builds, res.Store.Epochs, res.Store.Samples,
		res.Store.Published, res.Store.EvictedEpochs, res.Store.DecayedDrops)
	if svc != nil {
		fmt.Println("\nfinal /statusz:")
		printStatusz(cfg.Client.BaseURL)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatalf("%v", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("curve written to %s\n", *jsonOut)
	}
	if !res.FixedPoint {
		os.Exit(2)
	}
}

func loadWorkload(name string) (*core.Program, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	prog, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	return prog.Core, nil
}

func printStatusz(baseURL string) {
	u, err := url.JoinPath(baseURL, "statusz")
	if err != nil {
		fatalf("%v", err)
	}
	resp, err := http.Get(u)
	if err != nil {
		fatalf("statusz: %v", err)
	}
	defer resp.Body.Close()
	var buf [4096]byte
	for {
		n, err := resp.Body.Read(buf[:])
		os.Stdout.Write(buf[:n])
		if err != nil {
			break
		}
	}
}

func short(id string) string {
	if len(id) > 10 {
		return id[:10]
	}
	return id
}

func fixedMark(g profsvc.Generation) string {
	if g.FixedPoint {
		return " =fixed"
	}
	return ""
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wsc-profsvc: "+format+"\n", args...)
	os.Exit(1)
}
