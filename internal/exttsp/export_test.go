package exttsp

// layoutParallelMinWork is LayoutParallel with the pool's hand-off
// threshold set by the test: 0 sends every re-scoring batch, one-neighbour
// and empty ones included, across the pool. It has no serial shortcut:
// workers = 1 is a pool without helpers, the owner alone in scoreBatch.
func layoutParallelMinWork(g *Graph, opts Options, workers, minWork int) ([]int, error) {
	if err := validate(g, opts); err != nil {
		return nil, err
	}
	return layoutShards(g, opts, Components(g), workers, minWork)
}
