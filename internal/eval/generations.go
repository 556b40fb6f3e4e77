package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"propeller/internal/core"
	"propeller/internal/profsvc"
	"propeller/internal/workload"
)

// GenerationCell is one ingestion configuration the generation loop is
// replayed under: the loop's decision sequence must be bit-identical
// across all of them.
type GenerationCell struct {
	Shards  int
	Workers int
	Loss    float64
	Dup     float64
}

// GenerationSweepConfig sizes the iterative-stability study. The zero
// value is the sweep the committed BENCH_profsvc.json baseline records.
type GenerationSweepConfig struct {
	Specs       []workload.Spec // default {Tiny()}
	Generations int             // default 5
	Hosts       int             // default 3
	TrainInsts  uint64          // default 3M per host per generation
	EvalInsts   uint64          // default 6M per measurement run
	Cells       []GenerationCell
	// Store overrides the default retention policy.
	Store profsvc.StoreConfig
}

func (c GenerationSweepConfig) specs() []workload.Spec {
	if len(c.Specs) == 0 {
		return []workload.Spec{workload.Tiny()}
	}
	return c.Specs
}

func (c GenerationSweepConfig) generations() int {
	if c.Generations <= 0 {
		return 5
	}
	return c.Generations
}

func (c GenerationSweepConfig) hosts() int {
	if c.Hosts <= 0 {
		return 3
	}
	return c.Hosts
}

func (c GenerationSweepConfig) cells() []GenerationCell {
	if len(c.Cells) == 0 {
		return []GenerationCell{
			{Shards: 1, Workers: 1},
			{Shards: 4, Workers: 2},
			{Shards: 2, Workers: 2, Loss: 0.25, Dup: 0.25},
		}
	}
	return c.Cells
}

func (c GenerationSweepConfig) budget() core.Budget {
	return core.Budget{TrainInsts: c.TrainInsts, EvalInsts: c.EvalInsts}.
		Or(core.Budget{TrainInsts: 3_000_000, EvalInsts: 6_000_000})
}

// GenerationCurve is one (workload, ingestion-config) loop outcome — a row
// of BENCH_profsvc.json.
type GenerationCurve struct {
	Workload string  `json:"workload"`
	Shards   int     `json:"shards"`
	Workers  int     `json:"workers"`
	LossRate float64 `json:"lossRate"`
	DupRate  float64 `json:"dupRate"`

	BaselineCycles uint64 `json:"baselineCycles"`
	// FixedPoint is the headline stability bit CI greps for.
	FixedPoint      bool                 `json:"fixed_point"`
	FixedPointGen   int                  `json:"fixedPointGen"`
	FinalSpeedupPct float64              `json:"finalSpeedupPct"`
	Generations     []profsvc.Generation `json:"generations"`

	// SequenceSHA fingerprints the loop's full decision sequence (build
	// IDs + layout hashes per generation): equal across every cell of the
	// same workload, or the loop is not reproducible.
	SequenceSHA string `json:"sequenceSHA"`
}

// GenerationSweepResult is the sweep's outcome: the loop shape it ran and
// one curve per (workload, ingestion-config) cell.
type GenerationSweepResult struct {
	Generations int
	Hosts       int
	Curves      []GenerationCurve
}

// WriteBenchJSON writes the BENCH_profsvc.json artifact.
func (r *GenerationSweepResult) WriteBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"benchmark":   "ProfSvc",
		"generations": r.Generations,
		"hosts":       r.Hosts,
		"records":     r.Curves,
	})
}

// GenerationSweep runs the continuous profile-build loop to convergence on
// each workload, replayed under every ingestion-configuration cell, and
// verifies the stability contract on each curve: monotone non-decreasing
// speedup, a byte-identical fixed point within the generation budget, and
// one decision sequence per workload regardless of sharding, ingest
// parallelism or injected transport faults.
func GenerationSweep(cfg GenerationSweepConfig) (*GenerationSweepResult, error) {
	out := &GenerationSweepResult{Generations: cfg.generations(), Hosts: cfg.hosts()}
	for _, spec := range cfg.specs() {
		prog, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		refSHA := ""
		b := cfg.budget()
		for _, cell := range cfg.cells() {
			res, err := profsvc.RunGenerations(prog.Core, profsvc.DriverConfig{
				Generations:     out.Generations,
				Hosts:           out.Hosts,
				Shards:          cell.Shards,
				WorkersPerShard: cell.Workers,
				QueueDepth:      256, // generous: stability runs must see no drops
				LossRate:        cell.Loss,
				DupRate:         cell.Dup,
				Seed:            11,
				TrainInsts:      b.TrainInsts,
				EvalInsts:       b.EvalInsts,
				StoreConfig:     cfg.Store,
			})
			if err != nil {
				return nil, fmt.Errorf("eval: %s shards=%d loss=%g: %w",
					spec.Name, cell.Shards, cell.Loss, err)
			}
			curve := GenerationCurve{
				Workload:        spec.Name,
				Shards:          cell.Shards,
				Workers:         cell.Workers,
				LossRate:        cell.Loss,
				DupRate:         cell.Dup,
				BaselineCycles:  res.BaselineCycles,
				FixedPoint:      res.FixedPoint,
				FixedPointGen:   res.FixedPointGen,
				FinalSpeedupPct: res.FinalSpeedupPct(),
				Generations:     res.Generations,
				SequenceSHA:     sequenceSHA(res),
			}
			prevSpeedup := 0.0
			for _, g := range res.Generations {
				if g.SpeedupPct < prevSpeedup {
					return nil, fmt.Errorf("eval: %s shards=%d loss=%g: speedup regressed at gen %d (%.3f%% -> %.3f%%)",
						spec.Name, cell.Shards, cell.Loss, g.Index, prevSpeedup, g.SpeedupPct)
				}
				prevSpeedup = g.SpeedupPct
			}
			if !res.FixedPoint {
				return nil, fmt.Errorf("eval: %s shards=%d loss=%g: no fixed point within %d generations",
					spec.Name, cell.Shards, cell.Loss, len(res.Generations))
			}
			if refSHA == "" {
				refSHA = curve.SequenceSHA
			} else if curve.SequenceSHA != refSHA {
				return nil, fmt.Errorf("eval: %s shards=%d workers=%d loss=%g: decision sequence diverges across ingestion configs",
					spec.Name, cell.Shards, cell.Workers, cell.Loss)
			}
			out.Curves = append(out.Curves, curve)
		}
	}
	return out, nil
}

// sequenceSHA hashes the loop's per-generation decision fingerprint.
func sequenceSHA(r *profsvc.LoopResult) string {
	var sb strings.Builder
	for _, g := range r.Generations {
		fmt.Fprintf(&sb, "%d|%s|%s|%s|%s\n",
			g.Index, g.ProfiledBuildID, g.CandidateBuildID, g.DeployedBuildID, g.LayoutSHA)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}
