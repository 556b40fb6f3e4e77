// Command benchmark measures the optimize pipeline from outside: four
// seeded workloads drive core.Optimize and profsvc.RunGenerations in a
// closed loop, and a traced run times each layer around its exported
// functions. README.md describes the workloads, the metrics and how they
// interact; BENCHMARK.json at the repository root fixes the bounds.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//	benchmark [--seed N] [--seconds S] [--out DIR]   every workload, both runs
//	benchmark compare A.json[,A2.json...] B.json[,B2.json...]
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed expected.json
var expectedJSON []byte

// expectation is the committed reference of one workload: the exit
// checksum every binary of the program must halt with (at any seed: the
// seed's edit keeps program output), and the baseline binary's size and
// cycle count at seed 0, which pin the generator, backend and simulator.
type expectation struct {
	Exit              int64  `json:"exit"`
	BaselineTextBytes int    `json:"baseline_text_bytes"`
	BaselineCycles    uint64 `json:"baseline_cycles"`
}

type envBlock struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// workloadResult is one workload's row of result.json. A --trace 0 run
// fills EndToEnd and the raw op times, a --trace 1 run PerLayer.
type workloadResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// CalibrationS is the median wall of the calibration loop beside the
	// ops; far from calibrationNominal means a slow or noisy host.
	CalibrationS float64            `json:"calibration_s,omitempty"`
	EndToEnd     map[string]float64 `json:"end_to_end,omitempty"`
	// OpSeconds are the timed ops' wall seconds, not calibrated.
	OpSeconds []float64          `json:"op_s,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

type resultFile struct {
	Env       envBlock                   `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "run this workload only (default: every workload, untraced then traced)")
	seed := flag.Uint64("seed", 0, "input seed: selects the edited functions and the fleet transport faults")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "with --workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	out := flag.String("out", "benchmark/out", "directory for result.json and trace-<workload>.json")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	env := envBlock{
		Commit: gitCommit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: procs, GOGC: os.Getenv("GOGC"), Seed: *seed, Seconds: *seconds,
	}
	if env.GOGC == "" {
		env.GOGC = "100"
	}
	res := resultFile{Env: env, Workloads: map[string]*workloadResult{}}
	var err error
	if *name == "" {
		err = runAll(&res, *out)
	} else if def, ok := findWorkload(*name); !ok {
		err = fmt.Errorf("unknown workload %q", *name)
	} else {
		var r *workloadResult
		if r, err = runOne(def, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err == nil {
			res.Workloads[def.Name] = r
		}
	}
	if err == nil {
		err = writeJSON(filepath.Join(*out, "result.json"), res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !printResult(res) {
		os.Exit(1)
	}
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload twice, untraced then traced, each run in a
// process of its own so that peak_rss_mb is the workload's alone.
func runAll(res *resultFile, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, def := range workloads {
		merged := &workloadResult{Correct: true}
		for _, trace := range []string{"0", "1"} {
			dir := filepath.Join(out, def.Name+"-trace"+trace)
			cmd := exec.Command(self, "--workload", def.Name, "--trace", trace, "--out", dir,
				"--seed", fmt.Sprint(res.Env.Seed), "--seconds", fmt.Sprint(res.Env.Seconds))
			cmd.Stderr = os.Stderr
			// The child's rows are printed again from the merged result.
			if runErr := cmd.Run(); runErr != nil {
				if _, exited := runErr.(*exec.ExitError); !exited {
					return runErr
				}
			}
			var child resultFile
			data, err := os.ReadFile(filepath.Join(dir, "result.json"))
			if err != nil {
				return fmt.Errorf("%s --trace %s left no result: %w", def.Name, trace, err)
			}
			if err := json.Unmarshal(data, &child); err != nil {
				return err
			}
			r := child.Workloads[def.Name]
			if r == nil {
				return fmt.Errorf("%s --trace %s: result.json has no row for it", def.Name, trace)
			}
			merged.Correct = merged.Correct && r.Correct
			merged.Attempted += r.Attempted
			merged.Failed += r.Failed
			if trace == "0" {
				merged.EndToEnd, merged.OpSeconds, merged.CalibrationS = r.EndToEnd, r.OpSeconds, r.CalibrationS
			} else {
				merged.PerLayer = r.PerLayer
			}
		}
		res.Workloads[def.Name] = merged
	}
	return nil
}

// printResult prints one "workload name value unit" row per metric and,
// for a single-workload run, the contract's JSON object as the last line.
// It reports whether every workload was correct.
func printResult(res resultFile) bool {
	names := make([]string, 0, len(res.Workloads))
	for n := range res.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	ok := true
	for _, n := range names {
		r := res.Workloads[n]
		ok = ok && r.Correct
		fmt.Printf("%s attempted %d count\n%s failed %d count\n", n, r.Attempted, n, r.Failed)
		if r.OpSeconds != nil {
			fmt.Printf("%s timed_ops %d count\n", n, len(r.OpSeconds))
		}
		printRows(n, endToEnd, r.EndToEnd)
		printRows(n, perLayer, r.PerLayer)
	}
	if len(names) == 1 {
		r := res.Workloads[names[0]]
		defs, vals := endToEnd, r.EndToEnd
		if vals == nil {
			defs, vals = perLayer, r.PerLayer
		}
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		metrics := map[string]value{}
		for _, d := range defs {
			metrics[d.Name] = value{vals[d.Name], d.Unit}
		}
		line, _ := json.Marshal(map[string]any{
			"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
		})
		fmt.Println(string(line))
	}
	return ok
}

func printRows(workload string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		if v, have := vals[d.Name]; have {
			fmt.Printf("%s %s %.6g %s\n", workload, d.Name, v, d.Unit)
		}
	}
}

// A run sets up at least setupRepeats times, and a cheap set-up again
// until setupBudget is spent or it has run three times as often; setup_s is
// the median.
const (
	setupRepeats = 3
	setupBudget  = 2 * time.Second
)

// runOne measures one workload in this process.
func runOne(def workloadDef, seed uint64, length time.Duration, traced bool, out string) (*workloadResult, error) {
	var expected map[string]expectation
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	var f *fixture
	var setupS, cal []float64
	for i, start := 0, time.Now(); i < setupRepeats || (i < 3*setupRepeats && time.Since(start) < setupBudget); i++ {
		cal = append(cal, calibrate())
		t0 := time.Now()
		var err error
		if f, err = setup(def, seed); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", def.Name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	r := &workloadResult{Correct: true}
	want := expected[def.Name]
	if f.refExit != want.Exit {
		fmt.Fprintf(os.Stderr, "%s: baseline halted with %d, expected.json says %d\n", def.Name, f.refExit, want.Exit)
		r.Correct = false
	}
	if seed == 0 && (f.baseTextSize != want.BaselineTextBytes || f.baseCycles != want.BaselineCycles) {
		// Not an error: a change to the backend or the machine model moves
		// these on purpose. A change meant only to speed the host must not.
		fmt.Fprintf(os.Stderr, "%s: baseline binary moved: %d text bytes / %d cycles, expected.json has %d / %d\n",
			def.Name, f.baseTextSize, f.baseCycles, want.BaselineTextBytes, want.BaselineCycles)
	}

	// One un-timed op fills lazy state and is the reference every later
	// op's decisions are compared with; its binaries are run to the end.
	warm, err := f.op()
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up op: %w", def.Name, err)
	}
	quality, err := f.verify(warm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", def.Name, err)
		r.Correct = false
	}
	check := func(o *outcome, err error) {
		r.Attempted++
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "%s: op %d: %v\n", def.Name, r.Attempted, err)
		case o.pmExit() != f.refExit:
			fmt.Fprintf(os.Stderr, "%s: op %d: metadata binary halted with %d, reference %d\n", def.Name, r.Attempted, o.pmExit(), f.refExit)
		case o.fingerprint() != warm.fingerprint():
			fmt.Fprintf(os.Stderr, "%s: op %d: not deterministic: %s, first op %s\n", def.Name, r.Attempted, o.fingerprint(), warm.fingerprint())
		default:
			return
		}
		r.Failed++
		r.Correct = false
	}

	deadline := time.Now().Add(length)
	var opS, allocB, allocN []float64
	timedOp := func() {
		cal = append(cal, calibrate())
		// Each op starts from a collected heap, as a pipeline run in a
		// fresh process would, not amid the previous op's garbage.
		runtime.GC()
		var o *outcome
		d, err := measure(func() (err error) {
			o, err = f.op()
			return err
		})
		check(o, err)
		opS, allocB, allocN = append(opS, d.Seconds), append(allocB, d.Bytes), append(allocN, d.Mallocs)
	}

	if !traced {
		for time.Now().Before(deadline) {
			timedOp()
		}
		scale := calibrationNominal / median(cal)
		n := float64(len(opS))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.CalibrationS, r.OpSeconds = median(cal), opS
		r.EndToEnd = map[string]float64{
			"setup_s":         median(setupS) * scale,
			"op_s.p50":        median(opS) * scale,
			"kblocks_per_s":   float64(f.prog.TotalBlocks) * n / (sum(opS) * scale) / 1e3,
			"alloc_mb_per_op": sum(allocB) / n / 1e6,
			"allocs_k_per_op": sum(allocN) / n / 1e3,
			"peak_rss_mb":     rss,
			"opt_cycles_pct":  quality.cyclesPct,
			"text_vs_pm_pct":  quality.textPct,
		}
		return r, nil
	}

	// Traced run: untraced and traced ops alternate, so that the tracing
	// overhead is read against untraced ops of the same stretch of time.
	rec := newRecorder()
	perOp := map[string][]float64{}
	for i := 1; i <= tracedOps || time.Now().Before(deadline); i++ {
		timedOp()
		runtime.GC()
		r.Attempted++
		m, err := f.tracedOp(rec, i, warm)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: traced op %d: %v\n", def.Name, i, err)
			r.Failed++
			r.Correct = false
			continue
		}
		for k, v := range m {
			perOp[k] = append(perOp[k], v)
		}
	}
	if !def.Fleet {
		// The service loop's traced op is one generation of four: its wall
		// says nothing about overhead.
		perOp["core.trace_overhead_share"] = []float64{median(perOp["core.op.s"])/median(opS) - 1}
	}
	r.PerLayer = map[string]float64{}
	for _, d := range perLayer {
		// A layer this workload's pipeline never calls reads 0.
		r.PerLayer[d.Name] = median(perOp[d.Name])
	}
	return r, writeJSON(filepath.Join(out, "trace-"+def.Name+".json"), rec.spans)
}

// tracedOps is the least number of traced ops in a --trace 1 run;
// per-layer numbers are medians over them.
const tracedOps = 3

// quality is what the optimized binary is worth, measured once per run on
// plain evaluation runs (simulated time: deterministic at a given seed).
type quality struct {
	cyclesPct float64 // optimized cycles as a percentage of the metadata binary's
	textPct   float64 // optimized text bytes as a percentage of the metadata binary's
}

// verify runs the warm-up op's binaries to the end and checks them against
// the baseline reference. For the service loop, whose result holds build
// IDs only, the first generation is rebuilt phase by phase, must reproduce
// the loop's first candidate, and stands for the text size.
func (f *fixture) verify(o *outcome) (quality, error) {
	if o.pmExit() != f.refExit {
		return quality{}, fmt.Errorf("metadata binary halted with %d, reference %d", o.pmExit(), f.refExit)
	}
	if o.loop != nil {
		a, err := f.phased(nil, 0)
		if err == nil {
			err = a.checkAgainst(o)
		}
		if err != nil {
			return quality{}, err
		}
		return quality{
			cyclesPct: 100 - o.loop.FinalSpeedupPct(),
			textPct:   100 * float64(len(a.po.Binary.Text)) / float64(len(a.meta.Binary.Text)),
		}, nil
	}
	pm, err := runPlain(o.res.Metadata.Binary)
	if err != nil {
		return quality{}, err
	}
	po, err := runPlain(o.res.Optimized.Binary)
	if err != nil {
		return quality{}, err
	}
	q := quality{
		cyclesPct: 100 * float64(po.Cycles) / float64(pm.Cycles),
		textPct:   100 * float64(len(o.res.Optimized.Binary.Text)) / float64(len(o.res.Metadata.Binary.Text)),
	}
	if po.Exit != f.refExit {
		return q, fmt.Errorf("optimized binary halted with %d, reference %d", po.Exit, f.refExit)
	}
	return q, nil
}
