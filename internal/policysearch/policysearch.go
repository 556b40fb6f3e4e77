// Package policysearch searches the layout-policy space: beyond the five
// fixed policies a human named, a search driver treats eval.LayoutEval as
// a deterministic fitness function and explores the space automatically — the
// Ext-TSP scoring parameters, the discrete knobs (PathClone,
// KeepBlockOrder), and per-function policy mixing, where the hottest
// functions are assigned their own policies within one binary.
//
// Two strategies run behind one interface: a seeded (1+λ) evolutionary
// driver that mutates the best fixed policy, and a successive-halving
// driver that samples a wide rung of candidates, scores them on cheap
// fidelity (a fraction of the full simulation budget), and promotes only
// the survivors to full analyze → relink → simulate. Candidate
// evaluation fans out through par.Do; results are committed by
// index and all randomness is consumed in serial driver code, so a
// fixed seed is bit-reproducible at every worker count.
//
// The fixed pass is structural: the five default policies are always
// evaluated first at full fidelity — their cells are the only race of the
// default field, the BENCH_layout.json leaderboard (Result.Leaderboard) —
// and the learned policy is the argmin over every full-fidelity outcome,
// so the learned table can never be worse than the best fixed policy, and
// any strict win is a layout no default policy expresses.
package policysearch

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"

	"propeller/internal/eval"
	"propeller/internal/par"
)

// Evaluator is the fitness function: it maps any layout policy
// (including per-function mixes) to a deterministic measurement.
// *eval.LayoutEval is the production implementation; tests substitute a
// synthetic one.
type Evaluator interface {
	// EvaluateInsts analyzes, relinks, and measures pol with the given
	// instruction budget. Deterministic in (pol, insts) apart from the
	// cell's measured* fields.
	EvaluateInsts(pol eval.LayoutPolicy, insts uint64) (eval.LayoutCell, error)
	// FullInsts is the full-fidelity budget; cheap rungs use fractions.
	FullInsts() uint64
	// HotFuncs names the n hottest profiled functions — the candidates
	// worth a per-function override.
	HotFuncs(n int) []string
	// BaselineCycles is the unoptimized binary's modeled cycle count.
	BaselineCycles() uint64
}

var _ Evaluator = (*eval.LayoutEval)(nil)

// WorkloadEvaluator pairs a workload name with its prepared Evaluator.
type WorkloadEvaluator struct {
	Name string
	Ev   Evaluator
}

// Config parameterizes the search. The zero value gets the defaults the
// committed BENCH_search.json baseline was produced with.
type Config struct {
	// Seed drives every random choice; a fixed seed reproduces the
	// whole search bit-identically at any worker count.
	Seed int64

	// Workers is the evaluation pool width (default GOMAXPROCS). It
	// affects wall clock only, never results.
	Workers int

	// Generations and Lambda shape the (1+λ) evolutionary strategy:
	// Generations serial rounds of Lambda parallel mutations each
	// (defaults 3 and 6).
	Generations int
	Lambda      int

	// Rungs, RungWidth, and Eta shape successive halving: RungWidth
	// candidates enter the cheapest rung (fidelity FullInsts/Eta^(Rungs-1));
	// each rung keeps the best 1/Eta and multiplies fidelity by Eta until
	// the survivors run at full fidelity (defaults 3, 12, 3).
	Rungs     int
	RungWidth int
	Eta       int

	// MixFuncs bounds how many hot functions per-function overrides may
	// target (default 4).
	MixFuncs int

	// Strategies selects and orders the drivers (default evolve, halving).
	Strategies []string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Generations <= 0 {
		c.Generations = 3
	}
	if c.Lambda <= 0 {
		c.Lambda = 6
	}
	if c.Rungs <= 0 {
		c.Rungs = 3
	}
	if c.RungWidth <= 0 {
		c.RungWidth = 12
	}
	if c.Eta <= 1 {
		c.Eta = 3
	}
	if c.MixFuncs <= 0 {
		c.MixFuncs = 4
	}
	if len(c.Strategies) == 0 {
		c.Strategies = []string{"evolve", "halving"}
	}
	return c
}

// Candidate is one point in the policy space plus its provenance.
type Candidate struct {
	Policy eval.LayoutPolicy `json:"policy"`
	// Origin tags how the candidate was produced: fixed, mutate, sample,
	// or mix.
	Origin string `json:"origin"`
}

// Outcome is one committed evaluation.
type Outcome struct {
	Candidate Candidate `json:"candidate"`
	// Insts is the fidelity the measurement ran at.
	Insts  uint64 `json:"insts"`
	Cycles uint64 `json:"cycles"`
	// Cell is the whole measurement Cycles was read from.
	Cell eval.LayoutCell `json:"-"`
}

// pool evaluates candidate batches through par.Do and owns every piece
// of shared search state. All mutation happens in serial code
// (evalBatch's commit loop); each task only fills its own result slot,
// so the trajectory, memo, and stats are identical at every worker
// count.
type pool struct {
	ev      Evaluator
	workers int
	full    uint64
	stats   *SearchStats

	// memo caches outcomes by (canonical policy JSON, fidelity):
	// a strategy re-proposing an evaluated point costs nothing and
	// counts as a (deterministic) cache hit.
	memo map[string]Outcome

	// best is the reigning full-fidelity champion; ties keep the earlier
	// commit (fixed anchors evaluate first, so "never worse than fixed"
	// holds by construction).
	best    *Outcome
	evalSeq int
}

// memoKey is the policy's journal JSON with the name cleared: fixed field
// order, sorted override names and shortest round-trip floats make it
// canonical and injective, so structurally equal policies share one entry
// however a strategy named them.
func (p *pool) memoKey(c Candidate, insts uint64) string {
	pol := c.Policy
	pol.Name = ""
	b, err := json.Marshal(pol)
	if err != nil {
		// Only a non-finite weight fails to encode; the samplers and
		// the JSON policy table cannot produce one.
		panic(err)
	}
	return fmt.Sprintf("%s@%d", b, insts)
}

// evalBatch evaluates cands at the given fidelity and commits the
// outcomes by index: memo lookups, stats, and best-so-far tracking all
// run serially, so goroutine interleaving never leaks into results.
func (p *pool) evalBatch(cands []Candidate, insts uint64) ([]Outcome, error) {
	outs := make([]Outcome, len(cands))
	todo := make([]int, 0, len(cands))
	for i, c := range cands {
		if hit, ok := p.memo[p.memoKey(c, insts)]; ok {
			hit.Candidate = c // keep the caller's name/origin for the journal
			outs[i] = hit
			p.stats.CacheHits++
			continue
		}
		todo = append(todo, i)
	}

	err := par.Do(len(todo), p.workers, func(t int) error {
		i := todo[t]
		cell, err := p.ev.EvaluateInsts(cands[i].Policy, insts)
		if err != nil {
			return err
		}
		outs[i] = Outcome{Candidate: cands[i], Insts: insts, Cycles: cell.Cycles, Cell: cell}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Serial commit in submission order: memo insertion, eval counting,
	// and champion updates.
	for _, i := range todo {
		p.memo[p.memoKey(cands[i], insts)] = outs[i]
		if insts == p.full {
			p.stats.FullEvals++
		} else {
			p.stats.CheapEvals++
		}
		p.evalSeq++
		if insts == p.full && (p.best == nil || outs[i].Cycles < p.best.Cycles) {
			o := outs[i]
			p.best = &o
			p.stats.Trajectory = append(p.stats.Trajectory, TrajectoryPoint{
				Eval:   p.evalSeq,
				Policy: o.Candidate.Policy.Name,
				Origin: o.Candidate.Origin,
				Cycles: o.Cycles,
			})
		}
	}
	return outs, nil
}

// fixedCandidates wraps the default policy field as the search's
// full-fidelity anchors.
func fixedCandidates() []Candidate {
	pols := eval.DefaultLayoutPolicies()
	out := make([]Candidate, len(pols))
	for i, p := range pols {
		out[i] = Candidate{Policy: p, Origin: "fixed"}
	}
	return out
}

// workloadSeed derives a per-workload RNG seed from the search seed, so
// one workload's learned policy does not depend on which other workloads
// share the run (the CI smoke subset must agree with the full catalog).
func workloadSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// Search runs the configured strategies over every workload and returns
// the journal: per-workload best fixed policy, learned policy, search
// statistics, and the trajectory of champions. Deterministic in
// (cfg.Seed, evals) — Workers only changes wall clock.
func Search(cfg Config, evals []WorkloadEvaluator) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Seed: cfg.Seed, Strategies: cfg.Strategies}
	for _, we := range evals {
		wr, err := searchOne(cfg, we)
		if err != nil {
			return nil, fmt.Errorf("policysearch %s: %w", we.Name, err)
		}
		res.Workloads = append(res.Workloads, *wr)
	}
	return res, nil
}

func searchOne(cfg Config, we WorkloadEvaluator) (*WorkloadResult, error) {
	st := &SearchStats{}
	p := &pool{
		ev:      we.Ev,
		workers: cfg.Workers,
		full:    we.Ev.FullInsts(),
		stats:   st,
		memo:    map[string]Outcome{},
	}
	fixedOut, err := p.evalBatch(fixedCandidates(), p.full)
	if err != nil {
		return nil, err
	}
	bestFixed := fixedOut[0]
	fixed := make([]eval.LayoutCell, len(fixedOut))
	for i, o := range fixedOut {
		if o.Cycles < bestFixed.Cycles {
			bestFixed = o
		}
		fixed[i] = o.Cell
	}

	rng := rand.New(rand.NewSource(workloadSeed(cfg.Seed, we.Name)))
	ctx := &runCtx{
		cfg:  cfg,
		rng:  rng,
		pool: p,
		hot:  we.Ev.HotFuncs(cfg.MixFuncs),
	}
	for _, s := range strategies(cfg) {
		if err := s.Run(ctx); err != nil {
			return nil, err
		}
	}

	learned := *p.best
	wr := &WorkloadResult{
		Workload:       we.Name,
		BaselineCycles: we.Ev.BaselineCycles(),
		BestFixed:      FixedBest{Policy: bestFixed.Candidate.Policy.Name, Cycles: bestFixed.Cycles},
		Fixed:          fixed,
		Learned:        learned.Candidate,
		LearnedCycles:  learned.Cycles,
		Stats:          *st,
	}
	if bestFixed.Cycles > 0 {
		wr.GainVsFixedPct = 100 * (1 - float64(learned.Cycles)/float64(bestFixed.Cycles))
	}
	if wr.BaselineCycles > 0 {
		wr.SpeedupPct = 100 * (1 - float64(learned.Cycles)/float64(wr.BaselineCycles))
	}
	return wr, nil
}
