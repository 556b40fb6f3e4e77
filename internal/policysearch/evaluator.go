// Production evaluator construction: one prepared eval.LayoutEval per
// workload, each with its own wpa incremental cache so candidates that
// share per-function layouts (the common case — most mutations move one
// knob or one function) reuse them across the whole search.
package policysearch

import (
	"propeller/internal/core"
	"propeller/internal/eval"
	"propeller/internal/workload"
)

// NewEvaluators prepares the fitness function for every spec at budget b
// (zero fields take eval.NewLayoutEval's defaults).
func NewEvaluators(specs []workload.Spec, b core.Budget) ([]WorkloadEvaluator, error) {
	out := make([]WorkloadEvaluator, 0, len(specs))
	for _, spec := range specs {
		le, err := eval.NewLayoutEval(spec, b)
		if err != nil {
			return nil, err
		}
		out = append(out, WorkloadEvaluator{Name: spec.Name, Ev: le})
	}
	return out, nil
}
