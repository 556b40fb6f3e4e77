// The search journal: per-workload statistics with the best-so-far
// trajectory, the learned policy table, and the BENCH_search.json
// artifact. Everything serialized here is a deterministic function of
// (seed, workloads) — there are no measured wall-clock fields — so the
// artifact is byte-identical at every worker count and wsc-benchdiff
// compares it exactly.
package policysearch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"propeller/internal/eval"
)

// TrajectoryPoint is one best-so-far improvement: after Eval committed
// evaluations (full + cheap), Policy became the champion.
type TrajectoryPoint struct {
	Eval   int    `json:"eval"`
	Policy string `json:"policy"`
	Origin string `json:"origin"`
	Cycles uint64 `json:"cycles"`
}

// SearchStats is one workload's search accounting. Every field is
// deterministic: CacheHits counts memo hits (a strategy re-proposing an
// evaluated candidate), not scheduling-dependent wpa cache traffic.
type SearchStats struct {
	Generations int               `json:"generations"`
	FullEvals   int               `json:"fullEvals"`
	CheapEvals  int               `json:"cheapEvals"`
	CacheHits   int               `json:"cacheHits"`
	Pruned      int               `json:"pruned"`
	Trajectory  []TrajectoryPoint `json:"trajectory"`
}

// FixedBest names the tournament-style winner the learned policy is
// judged against.
type FixedBest struct {
	Policy string `json:"policy"`
	Cycles uint64 `json:"cycles"`
}

// WorkloadResult is one workload's journal entry.
type WorkloadResult struct {
	Workload       string    `json:"workload"`
	BaselineCycles uint64    `json:"baselineCycles"`
	BestFixed      FixedBest `json:"bestFixed"`
	Learned        Candidate `json:"learned"`
	LearnedCycles  uint64    `json:"learnedCycles"`
	// GainVsFixedPct is the learned policy's cycle advantage over the
	// best fixed policy (0 = tied with it; the search never regresses it).
	GainVsFixedPct float64 `json:"gainVsFixedPct"`
	// SpeedupPct is the learned policy's improvement over the
	// unoptimized baseline binary.
	SpeedupPct float64     `json:"speedupPct"`
	Stats      SearchStats `json:"stats"`
}

// Result is the whole search journal.
type Result struct {
	Seed       int64            `json:"seed"`
	Strategies []string         `json:"strategies"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// Smoke is the search's CI contract.
type Smoke struct {
	Workloads int `json:"workloads"`
	// NeverWorse: on every workload the learned policy's cycles are <=
	// the best fixed policy's (guaranteed by construction; asserting it
	// catches a future regression of that construction).
	NeverWorse bool `json:"neverWorse"`
	// StrictWins counts workloads where the learned policy beats the
	// best fixed policy outright.
	StrictWins    int  `json:"strictWins"`
	MinStrictWins int  `json:"minStrictWins"`
	OK            bool `json:"ok"`
}

// SmokeCheck evaluates the contract: never worse than the best fixed
// policy anywhere, strictly better on at least minStrictWins workloads.
func (r *Result) SmokeCheck(minStrictWins int) Smoke {
	s := Smoke{Workloads: len(r.Workloads), NeverWorse: true, MinStrictWins: minStrictWins}
	for _, w := range r.Workloads {
		if w.LearnedCycles > w.BestFixed.Cycles {
			s.NeverWorse = false
		}
		if w.LearnedCycles < w.BestFixed.Cycles {
			s.StrictWins++
		}
	}
	s.OK = s.NeverWorse && s.StrictWins >= minStrictWins && s.Workloads > 0
	return s
}

// PolicyTable is the learned per-workload (and, inside each policy,
// per-function) table — the wsc-search output wsc-propeller consumes
// via -layout-table.
type PolicyTable struct {
	Version   string                       `json:"version"`
	Seed      int64                        `json:"seed"`
	Workloads map[string]eval.LayoutPolicy `json:"workloads"`
}

// TableVersion guards the -layout-table file format.
const TableVersion = "wsc-search-table-v1"

// Table extracts the learned policy table from the journal.
func (r *Result) Table() PolicyTable {
	t := PolicyTable{Version: TableVersion, Seed: r.Seed, Workloads: map[string]eval.LayoutPolicy{}}
	for _, w := range r.Workloads {
		t.Workloads[w.Workload] = w.Learned.Policy
	}
	return t
}

// For resolves a workload's learned policy.
func (t *PolicyTable) For(workload string) (eval.LayoutPolicy, bool) {
	p, ok := t.Workloads[workload]
	return p, ok
}

// WriteTable serializes the table as indented JSON.
func (t PolicyTable) WriteTable(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadTable parses and validates a -layout-table file: one JSON value and
// nothing but white space after it.
func ReadTable(r io.Reader) (*PolicyTable, error) {
	var t PolicyTable
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("policysearch: layout table: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("policysearch: layout table: trailing data after the table")
	}
	if t.Version != TableVersion {
		return nil, fmt.Errorf("policysearch: layout table: version %q, want %q", t.Version, TableVersion)
	}
	if len(t.Workloads) == 0 {
		return nil, fmt.Errorf("policysearch: layout table: no workloads")
	}
	return &t, nil
}

// WriteBenchJSON writes the BENCH_search.json artifact (one shape shared
// by BenchmarkPolicySearch and `wsc-search`, so the committed baseline
// applies to either producer). Fully deterministic, so the
// bench-regression gate compares every leaf exactly.
func (r *Result) WriteBenchJSON(w io.Writer, minStrictWins int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"benchmark":  "PolicySearch",
		"seed":       r.Seed,
		"strategies": r.Strategies,
		"workloads":  r.Workloads,
		"table":      r.Table(),
		"smoke":      r.SmokeCheck(minStrictWins),
	})
}

// Fingerprint hashes the journal's deterministic serialized form; equal
// fingerprints across worker counts is the bit-reproducibility contract.
func (r *Result) Fingerprint() string {
	h := sha256.New()
	// The JSON encoder sorts map keys, so this serialization is already
	// canonical; minStrictWins only affects the embedded smoke verdict,
	// not the search outcome, and 0 keeps the fingerprint contract-free.
	if err := r.WriteBenchJSON(h, 0); err != nil {
		// Result contains only encodable types; an error here is a bug.
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
