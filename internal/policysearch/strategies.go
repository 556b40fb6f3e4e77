// The two search strategies. Both consume randomness only in serial
// driver code — they build a whole generation/rung of candidates first,
// then hand the batch to the pool — which is what keeps a fixed seed
// bit-reproducible at every worker count.
package policysearch

import (
	"fmt"
	"math/rand"
	"sort"

	"propeller/internal/eval"
	"propeller/internal/exttsp"
	"propeller/internal/wpa"
)

// Strategy is one search driver. Run proposes candidates against the
// shared pool; the pool tracks every full-fidelity outcome, so a
// strategy only decides what to try, never who won.
type Strategy interface {
	Name() string
	Run(c *runCtx) error
}

// runCtx is one workload's live search state.
type runCtx struct {
	cfg  Config
	rng  *rand.Rand
	pool *pool
	// hot names the hottest profiled functions, the targets per-function
	// overrides may pick.
	hot []string
}

func strategies(cfg Config) []Strategy {
	out := make([]Strategy, 0, len(cfg.Strategies))
	for _, name := range cfg.Strategies {
		switch name {
		case "evolve":
			out = append(out, evolve{})
		case "halving":
			out = append(out, halving{})
		}
	}
	return out
}

// StrategyNames lists the known drivers (CLI validation).
func StrategyNames() []string { return []string{"evolve", "halving"} }

// evolve is a (1+λ) evolutionary driver: the parent is the best
// full-fidelity outcome so far (initially the best fixed policy), each
// generation proposes λ mutations, and the parent is replaced only on
// strict improvement.
type evolve struct{}

func (evolve) Name() string { return "evolve" }

func (evolve) Run(c *runCtx) error {
	parent := *c.pool.best
	for g := 0; g < c.cfg.Generations; g++ {
		kids := make([]Candidate, c.cfg.Lambda)
		for i := range kids {
			kids[i] = mutate(c, parent.Candidate, fmt.Sprintf("evolve-g%dc%d", g, i))
		}
		outs, err := c.pool.evalBatch(kids, c.pool.full)
		if err != nil {
			return err
		}
		c.pool.stats.Generations++
		for _, o := range outs {
			if o.Cycles < parent.Cycles {
				parent = o
			}
		}
	}
	return nil
}

// mutate applies one unit move: perturb the base Ext-TSP params, flip a
// discrete knob, retarget a hot function with its own policy, or drop an
// existing override.
func mutate(c *runCtx, parent Candidate, name string) Candidate {
	pol := clonePolicy(parent.Policy)
	pol.Name = name
	switch pick := c.rng.Intn(10); {
	case pick < 4:
		pol.Params = exttsp.MutateParams(pol.Params, c.rng)
	case pick < 5:
		pol.KeepBlockOrder = !pol.KeepBlockOrder
	case pick < 6:
		pol.PathClone = !pol.PathClone
	case pick < 9 && len(c.hot) > 0:
		fn := c.hot[c.rng.Intn(len(c.hot))]
		if pol.FuncPolicies == nil {
			pol.FuncPolicies = map[string]wpa.FuncPolicy{}
		}
		pol.FuncPolicies[fn] = randomFuncPolicy(c.rng)
	case len(pol.FuncPolicies) > 0:
		keys := sortedOverrideKeys(pol.FuncPolicies)
		delete(pol.FuncPolicies, keys[c.rng.Intn(len(keys))])
	default:
		pol.Params = exttsp.MutateParams(pol.Params, c.rng)
	}
	return Candidate{Policy: pol, Origin: "mutate"}
}

func randomFuncPolicy(r *rand.Rand) wpa.FuncPolicy {
	switch r.Intn(4) {
	case 0:
		return wpa.FuncPolicy{KeepBlockOrder: true}
	case 1:
		return wpa.FuncPolicy{PathClone: true}
	case 2:
		return wpa.FuncPolicy{ExtTSP: exttsp.SampleParams(r)}
	default:
		return wpa.FuncPolicy{ExtTSP: exttsp.MutateParams(exttsp.Params{}, r)}
	}
}

// clonePolicy deep-copies the policy so mutations never alias the
// parent's override map.
func clonePolicy(p eval.LayoutPolicy) eval.LayoutPolicy {
	if p.FuncPolicies != nil {
		m := make(map[string]wpa.FuncPolicy, len(p.FuncPolicies))
		for k, v := range p.FuncPolicies {
			m[k] = v
		}
		p.FuncPolicies = m
	}
	return p
}

func sortedOverrideKeys(m map[string]wpa.FuncPolicy) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// halving is a successive-halving driver: a wide rung of candidates is
// scored on cheap fidelity (a fraction of the simulation budget), the
// best 1/Eta survive to the next rung at Eta× fidelity, and only the
// final survivors pay for a full analyze → relink → simulate.
type halving struct{}

func (halving) Name() string { return "halving" }

func (halving) Run(c *runCtx) error {
	cands := seedPopulation(c, c.cfg.RungWidth)
	for r := 0; r < c.cfg.Rungs && len(cands) > 0; r++ {
		insts := c.pool.full
		for k := 0; k < c.cfg.Rungs-1-r; k++ {
			insts /= uint64(c.cfg.Eta)
		}
		if insts < 1<<16 {
			insts = 1 << 16
		}
		outs, err := c.pool.evalBatch(cands, insts)
		if err != nil {
			return err
		}
		if insts == c.pool.full {
			break // final rung: the pool already tracked any champion
		}
		// Keep the best ceil(len/Eta); ties keep the earlier candidate.
		order := make([]int, len(outs))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return outs[order[a]].Cycles < outs[order[b]].Cycles })
		keep := (len(outs) + c.cfg.Eta - 1) / c.cfg.Eta
		c.pool.stats.Pruned += len(outs) - keep
		next := make([]Candidate, 0, keep)
		for _, i := range order[:keep] {
			next = append(next, cands[i])
		}
		cands = next
	}
	return nil
}

// seedPopulation builds the bottom rung: deterministic per-function
// mixes of the fixed policies first (base policy i with hot functions
// overridden by policy j's knobs — exactly the tables no single default
// policy expresses), then random samples until width is met.
func seedPopulation(c *runCtx, width int) []Candidate {
	fixed := eval.DefaultLayoutPolicies()
	var out []Candidate
	for i := 0; i < len(fixed) && len(out) < width/2; i++ {
		for j := 0; j < len(fixed) && len(out) < width/2; j++ {
			if i == j || len(c.hot) == 0 {
				continue
			}
			pol := clonePolicy(fixed[i])
			pol.Name = fmt.Sprintf("mix-%s+%s", fixed[i].Name, fixed[j].Name)
			pol.FuncPolicies = map[string]wpa.FuncPolicy{
				c.hot[0]: {
					KeepBlockOrder: fixed[j].KeepBlockOrder,
					PathClone:      fixed[j].PathClone,
					ExtTSP:         fixed[j].Params,
				},
			}
			out = append(out, Candidate{Policy: pol, Origin: "mix"})
		}
	}
	for len(out) < width {
		pol := eval.LayoutPolicy{
			Name:   fmt.Sprintf("sample-%d", len(out)),
			Params: exttsp.SampleParams(c.rng),
		}
		if c.rng.Intn(2) == 0 {
			pol.PathClone = c.rng.Intn(2) == 0
		}
		if n := len(c.hot); n > 0 && c.rng.Intn(2) == 0 {
			pol.FuncPolicies = map[string]wpa.FuncPolicy{
				c.hot[c.rng.Intn(n)]: randomFuncPolicy(c.rng),
			}
		}
		out = append(out, Candidate{Policy: pol, Origin: "sample"})
	}
	return out
}
