// Layout-policy evaluation: any named layout policy — default Ext-TSP, the
// hfsort+-style call-chain-first policy, path-cloned Ext-TSP, a sweep of
// the Ext-TSP proximity weights, or a per-function mix of them — run
// through the full relink pipeline and measured on internal/sim's uarch
// model. The simulator is a deterministic, cheap fitness function, so the
// policy search AI-PROPELLER needed a datacenter for is a reproducible
// benchmark here: internal/policysearch drives LayoutEval, and the
// leaderboard of its fixed pass over the default policies is
// BENCH_layout.json.
package eval

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/exttsp"
	"propeller/internal/layoutfile"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

// LayoutPolicy names one contender: a complete layout configuration
// LayoutEval maps onto wpa.Config.
type LayoutPolicy struct {
	Name           string        `json:"name"`
	InterProc      bool          `json:"interProc,omitempty"`
	KeepBlockOrder bool          `json:"keepBlockOrder,omitempty"`
	PathClone      bool          `json:"pathClone,omitempty"`
	Params         exttsp.Params `json:"params,omitempty"`

	// FuncPolicies mixes per-function overrides into the base policy:
	// each named hot function gets its own knobs while every other
	// function keeps the fields above. This is the shape the automated
	// policy search emits (internal/policysearch).
	FuncPolicies map[string]wpa.FuncPolicy `json:"funcPolicies,omitempty"`
}

// DefaultLayoutPolicies is the standing field the policy search races
// first: the paper baseline plus one contender per axis the design space
// offers.
func DefaultLayoutPolicies() []LayoutPolicy {
	return []LayoutPolicy{
		// The paper's configuration: per-function Ext-TSP with the
		// published weights. Every other policy is judged against it.
		{Name: "exttsp"},
		// hfsort+-style call-chain-first: only the C3 function order and
		// the hot/cold split move code; blocks keep their original order.
		{Name: "callchain", KeepBlockOrder: true},
		// Path-cloned Ext-TSP: hot paths reconstructed from the LBR
		// stream are cloned into fall-through chains before layout.
		{Name: "pathclone", PathClone: true},
		// Weight sweep: stronger, flatter forward preference.
		{Name: "fw-heavy", Params: exttsp.Params{ForwardWeight: 0.4, BackwardWeight: 0.05}},
		// Window sweep: doubled proximity windows.
		{Name: "window-2x", Params: exttsp.Params{ForwardWindow: 2048, BackwardWindow: 1280}},
	}
}

// PolicyByName resolves a default policy by its name.
func PolicyByName(name string) (LayoutPolicy, bool) {
	for _, p := range DefaultLayoutPolicies() {
		if p.Name == name {
			return p, true
		}
	}
	return LayoutPolicy{}, false
}

// needsPaths reports whether any part of the policy (base or per-func
// override) consumes reconstructed hot paths.
func (p LayoutPolicy) needsPaths() bool {
	if p.PathClone {
		return true
	}
	for _, fp := range p.FuncPolicies {
		if fp.PathClone {
			return true
		}
	}
	return false
}

// wpaConfig maps the policy onto the analyzer configuration.
func (p LayoutPolicy) wpaConfig(workers int, paths wpa.PathSet) wpa.Config {
	cfg := wpa.Config{
		InterProc:      p.InterProc,
		KeepBlockOrder: p.KeepBlockOrder,
		PathClone:      p.PathClone,
		ExtTSP:         p.Params,
		FuncPolicies:   p.FuncPolicies,
		Workers:        workers,
	}
	if p.needsPaths() {
		cfg.HotPaths = paths
	}
	return cfg
}

// evalSlots is the modeled build executor width of every layout
// evaluation and of the incremental replay: a narrow pool, so a cold
// relink's hot-module wave dominates the makespan and the warm win shows up
// as wall time, not just saved cores.
const evalSlots = 8

// replayWorkers are the WPA worker counts every evaluation replays its
// analysis under; the artifacts must be byte-identical across them.
var replayWorkers = []int{1, 4}

// defaultLayoutBudget is the fidelity of every layout evaluation unless
// its caller sets a field: a 60M-instruction profile and 40M-instruction
// measurement runs.
var defaultLayoutBudget = core.Budget{TrainInsts: 60_000_000, EvalInsts: 40_000_000, LBRPeriod: 211}

// LayoutCell is one (workload, policy) leaderboard entry. Everything
// except the measured wall time is a deterministic function of the
// workload and policy, so the bench-regression gate compares it exactly.
type LayoutCell struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`

	// Modeled execution of the relinked binary.
	Cycles        uint64 `json:"cycles"`
	Insts         uint64 `json:"insts"`
	L1IMiss       uint64 `json:"l1iMiss"`
	ITLBMiss      uint64 `json:"itlbMiss"`
	TakenBranches uint64 `json:"takenBranches"`

	// SpeedupPct is the cycle improvement over the unoptimized baseline
	// binary; DeltaVsDefaultPct the improvement over the "exttsp" policy
	// on the same workload (positive = beats the default).
	SpeedupPct        float64 `json:"speedupPct"`
	DeltaVsDefaultPct float64 `json:"deltaVsDefaultPct"`

	// HotFuncs is the layout's hot-function count; HotPathFuncs how many
	// functions contributed reconstructed hot paths (path policies only).
	HotFuncs     int `json:"hotFuncs"`
	HotPathFuncs int `json:"hotPathFuncs,omitempty"`

	// IdenticalAcrossWorkers: the policy's artifacts byte-compared equal
	// at every replay worker count.
	IdenticalAcrossWorkers bool `json:"identicalAcrossWorkers"`

	// AnalysisSeconds is measured wall time; the "measured" prefix in the
	// JSON key exempts it from the bench-regression gate, as does the
	// cache-hit count below (it depends on evaluation order when a search
	// evaluates candidates in parallel against the evaluator's one cache).
	AnalysisSeconds     float64 `json:"measuredAnalysisSeconds"`
	FuncLayoutCacheHits int     `json:"measuredFuncLayoutCacheHits,omitempty"`
}

// LayoutLeader is one workload's winner row.
type LayoutLeader struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	Cycles   uint64 `json:"cycles"`
	// MarginPct is the winner's cycle advantage over the default policy
	// (zero when the default wins).
	MarginPct float64 `json:"marginPct"`
}

// LayoutSmoke is the leaderboard's CI contract.
type LayoutSmoke struct {
	Policies []string `json:"policies"`
	// PoliciesOK: every default policy raced on every workload.
	PoliciesOK bool `json:"policiesOK"`
	// Identical: every cell's artifacts were byte-identical across
	// worker counts.
	Identical bool `json:"identical"`
	// NonDefaultWin: at least one non-default policy beat default
	// Ext-TSP in modeled cycles on at least one workload.
	NonDefaultWin bool `json:"nonDefaultWin"`
	OK            bool `json:"ok"`
}

// Leaderboard is the default policies' full-fidelity race: one cell per
// (workload, policy), workloads in the order added, policies in
// DefaultLayoutPolicies order.
type Leaderboard struct {
	Policies []LayoutPolicy `json:"policies"`
	Workers  []int          `json:"workers"`
	Cells    []LayoutCell   `json:"cells"`
	Leaders  []LayoutLeader `json:"leaders"`

	// BaselineCycles records each workload's unoptimized-binary run, the
	// denominator of every SpeedupPct.
	BaselineCycles map[string]uint64 `json:"baselineCycles"`
}

// NewLeaderboard returns an empty leaderboard of the default policies.
func NewLeaderboard() *Leaderboard {
	return &Leaderboard{
		Policies:       DefaultLayoutPolicies(),
		Workers:        slices.Clone(replayWorkers),
		BaselineCycles: map[string]uint64{},
	}
}

// Add appends one workload's cells with their default-relative columns
// filled in, its leader (the first lowest-cycle cell) and its baseline.
func (r *Leaderboard) Add(workload string, baselineCycles uint64, cells []LayoutCell) {
	var def uint64
	for _, c := range cells {
		if c.Policy == "exttsp" {
			def = c.Cycles
		}
	}
	var winner LayoutLeader
	for _, c := range cells {
		if def > 0 {
			c.DeltaVsDefaultPct = 100 * (1 - float64(c.Cycles)/float64(def))
		}
		if winner.Policy == "" || c.Cycles < winner.Cycles {
			winner = LayoutLeader{Workload: workload, Policy: c.Policy, Cycles: c.Cycles}
		}
		r.Cells = append(r.Cells, c)
	}
	if def > 0 && winner.Cycles < def {
		winner.MarginPct = 100 * (1 - float64(winner.Cycles)/float64(def))
	}
	r.Leaders = append(r.Leaders, winner)
	r.BaselineCycles[workload] = baselineCycles
}

// Smoke evaluates the CI contract.
func (r *Leaderboard) Smoke() LayoutSmoke {
	s := LayoutSmoke{Identical: true}
	for _, p := range DefaultLayoutPolicies() {
		s.Policies = append(s.Policies, p.Name)
	}
	byWorkload := map[string]map[string]uint64{}
	for _, c := range r.Cells {
		if !c.IdenticalAcrossWorkers {
			s.Identical = false
		}
		if byWorkload[c.Workload] == nil {
			byWorkload[c.Workload] = map[string]uint64{}
		}
		byWorkload[c.Workload][c.Policy] = c.Cycles
	}
	s.PoliciesOK = len(byWorkload) > 0
	for _, cycles := range byWorkload {
		for _, name := range s.Policies {
			if _, ok := cycles[name]; !ok {
				s.PoliciesOK = false
			}
		}
		def, ok := cycles["exttsp"]
		if !ok {
			continue
		}
		for name, cy := range cycles {
			if name != "exttsp" && cy < def {
				s.NonDefaultWin = true
			}
		}
	}
	s.OK = s.PoliciesOK && s.Identical && s.NonDefaultWin
	return s
}

// WriteBenchJSON writes the BENCH_layout.json artifact, which
// BenchmarkPolicySearch builds from the search's fixed pass.
func (r *Leaderboard) WriteBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"benchmark":      "LayoutTournament",
		"policies":       r.Policies,
		"workers":        r.Workers,
		"records":        r.Cells,
		"leaders":        r.Leaders,
		"baselineCycles": r.BaselineCycles,
		"smoke":          r.Smoke(),
	})
}

// LayoutEval is one workload's prepared evaluation state: the metadata
// build, training profile, position-independent aggregate, reconstructed
// hot paths, cached IR, and the measured unoptimized baseline — everything
// a policy evaluation shares, amortized once. It is the fitness function
// behind the automated policy search: EvaluateInsts maps any LayoutPolicy
// (including per-function mixes) to a LayoutCell deterministically, and is
// the one place a layout candidate is relinked and measured.
type LayoutEval struct {
	spec    workload.Spec
	budget  core.Budget
	prog    *workload.Program
	opts    core.Options
	m       *bbaddrmap.Map
	agg     *wpa.Aggregate
	paths   wpa.PathSet
	irKeys  []string
	baseRun *sim.Result

	// cache is the evaluator's incremental analysis cache: whole layouts
	// keyed by policy, and per-function layouts keyed by wpa's
	// funcPolicyKey machinery, so candidates that share a function's
	// policy (most mutations move one knob or one function) reuse its
	// layout.
	cache *buildsys.Cache
}

// NewLayoutEval prepares the shared state for one workload at budget b;
// its zero fields take defaultLayoutBudget's.
func NewLayoutEval(spec workload.Spec, b core.Budget) (*LayoutEval, error) {
	b = b.Or(defaultLayoutBudget)
	prog, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		Executor:  &buildsys.Executor{Slots: evalSlots},
		HugePages: spec.HugePages,
		IRCache:   buildsys.NewCache(),
		ObjCache:  buildsys.NewCache(),
	}
	pb, err := profileBuild(prog.Core, b, opts)
	if err != nil {
		return nil, fmt.Errorf("eval %s: %w", spec.Name, err)
	}
	paths, err := wpa.ReconstructPaths(pb.m, pb.prof, wpa.PathOptions{})
	if err != nil {
		return nil, err
	}
	base, err := core.BuildBaseline(prog.Core, opts)
	if err != nil {
		return nil, err
	}
	baseRun, err := core.Measure(base.Binary, sim.Config{MaxInsts: b.EvalInsts}, nil)
	if err != nil {
		return nil, fmt.Errorf("eval %s: baseline run: %w", spec.Name, err)
	}
	return &LayoutEval{
		spec: spec, budget: b, prog: prog, opts: opts,
		m: pb.m, agg: pb.agg, paths: paths, irKeys: pb.meta.IRKeys, baseRun: baseRun,
		cache: buildsys.NewCache(),
	}, nil
}

// profiled is one program's shared training state: its metadata build, the
// profile of one training run, the decoded address map and the
// position-independent aggregate over it.
type profiled struct {
	meta *core.BuildResult
	prof *profile.Profile
	m    *bbaddrmap.Map
	agg  *wpa.Aggregate
}

// profileBuild builds p with metadata under opts and profiles it for b's
// training budget.
func profileBuild(p *core.Program, b core.Budget, opts core.Options) (*profiled, error) {
	meta, err := core.BuildWithMetadata(p, opts)
	if err != nil {
		return nil, fmt.Errorf("metadata build: %w", err)
	}
	prof, _, err := core.CollectProfile(meta.Binary, core.RunSpec{MaxInsts: b.TrainInsts, LBRPeriod: b.LBRPeriod}, false)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	m, err := bbaddrmap.Decode(meta.Binary.BBAddrMap)
	if err != nil {
		return nil, err
	}
	agg, err := wpa.BuildAggregate(m, prof, wpa.Config{})
	if err != nil {
		return nil, err
	}
	return &profiled{meta: meta, prof: prof, m: m, agg: agg}, nil
}

// BaselineCycles is the unoptimized binary's modeled cycle count, the
// denominator of every SpeedupPct.
func (e *LayoutEval) BaselineCycles() uint64 { return e.baseRun.Cycles }

// FullInsts is the full-fidelity measurement budget; cheap-fidelity
// probes pass a fraction of it to EvaluateInsts.
func (e *LayoutEval) FullInsts() uint64 { return e.budget.EvalInsts }

// HotFuncs returns the n hottest profiled functions — the candidates
// worth a per-function policy override.
func (e *LayoutEval) HotFuncs(n int) []string { return e.agg.HotFuncs(n) }

// EvaluateInsts analyzes, relinks, and measures one policy with the given
// instruction budget. The analysis replays at every replayWorkers count
// and the artifacts are byte-compared; only the first analysis reads and
// fills the evaluator's layout cache, so the replays lay out every
// function afresh and the comparison never holds the cache against
// itself. The relinked binary then runs on the uarch model for at most
// insts instructions. Everything in the returned cell except the
// measured* fields is a deterministic function of (workload, policy,
// insts).
func (e *LayoutEval) EvaluateInsts(pol LayoutPolicy, insts uint64) (LayoutCell, error) {
	cell := LayoutCell{Workload: e.spec.Name, Policy: pol.Name, IdenticalAcrossWorkers: true}
	if pol.needsPaths() {
		cell.HotPathFuncs = len(e.paths)
	}

	// Replay the analysis at every worker count; all artifact pairs must
	// byte-match the first.
	var res *wpa.Result
	var firstCC, firstLD []byte
	start := time.Now()
	for wi, w := range replayWorkers {
		wcfg := pol.wpaConfig(w, e.paths)
		if wi == 0 {
			wcfg.Cache, wcfg.ProfileEpoch = e.cache, e.spec.Name
		}
		r, err := wpa.Analyze(func() (*bbaddrmap.Map, error) { return e.m, nil }, wpa.Prebuilt(e.agg), wcfg)
		if err != nil {
			return cell, fmt.Errorf("eval %s/%s: analyze (workers=%d): %w", e.spec.Name, pol.Name, w, err)
		}
		cc, ld, err := layoutfile.Render(r.Directives, r.Order)
		if err != nil {
			return cell, err
		}
		if wi == 0 {
			res, firstCC, firstLD = r, cc, ld
		} else if !bytes.Equal(cc, firstCC) || !bytes.Equal(ld, firstLD) {
			cell.IdenticalAcrossWorkers = false
		}
		cell.FuncLayoutCacheHits += r.Stats.FuncLayoutHits
	}
	cell.AnalysisSeconds = time.Since(start).Seconds()
	cell.HotFuncs = res.Stats.HotFuncs

	build, _, _, err := core.Relink(e.prog.Core, e.irKeys, res, e.opts)
	if err != nil {
		return cell, fmt.Errorf("eval %s/%s: relink: %w", e.spec.Name, pol.Name, err)
	}
	// The layout must never change program semantics, but the checksum
	// only holds at full fidelity: a truncated run exits mid-program.
	full := e.FullInsts()
	var ref *sim.Result
	if insts == full {
		ref = e.baseRun
	}
	run, err := core.Measure(build.Binary, sim.Config{MaxInsts: insts}, ref)
	if err != nil {
		// A cheap-fidelity probe (insts below the full budget) is meant to
		// truncate: exhausting the instruction budget is the measurement,
		// and the cycles recorded at the cut are the sample-subset
		// fitness. Every other fault — and any fault at full fidelity —
		// is a real failure.
		var re *sim.RunError
		if !(insts < full && errors.As(err, &re) && re.Inst >= insts) {
			return cell, fmt.Errorf("eval %s/%s: run: %w", e.spec.Name, pol.Name, err)
		}
	}
	cell.Cycles = run.Cycles
	cell.Insts = run.Insts
	cell.L1IMiss = run.Counters.L1IMiss
	cell.ITLBMiss = run.Counters.ITLBMiss
	cell.TakenBranches = run.Counters.TakenBranch
	if e.baseRun.Cycles > 0 && insts == full {
		cell.SpeedupPct = 100 * (1 - float64(run.Cycles)/float64(e.baseRun.Cycles))
	}
	return cell, nil
}
