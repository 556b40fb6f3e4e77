package exttsp

import (
	"reflect"
	"testing"
)

// layoutNaive is Layout with the textbook retrieval: every merge rescans
// all connected chain pairs for the single best one. Layout's heap must
// replay its merge sequence exactly; only the retrieval cost differs,
// which is what BenchmarkAblationExtTSP measures (§4.7).
func layoutNaive(g *Graph, opts Options) ([]int, error) {
	if len(g.Nodes) == 0 {
		return nil, nil
	}
	if err := validate(g, opts); err != nil {
		return nil, err
	}
	st := newState(g, opts)
	st.runNaive()
	return st.finalOrder(), nil
}

// retrievals are Layout and the naive rescan, for the tests that hold a
// layout property to both.
var retrievals = []struct {
	name   string
	layout func(*Graph, Options) ([]int, error)
}{{"heap", Layout}, {"naive", layoutNaive}}

// runNaive repeatedly scans all connected chain pairs for the single best
// merge. This is the quadratic baseline the ablation benchmark compares
// against.
func (st *state) runNaive() {
	for {
		var best mergeCandidate
		found := false
		for _, x := range st.chains {
			if x.dead {
				continue
			}
			for _, yid := range st.neighbors(x) {
				if yid <= x.id {
					continue // each unordered pair once
				}
				y := st.chains[yid]
				if y.dead {
					continue
				}
				if c, ok := st.bestMerge(&st.sc, x, y); ok && (!found || c.gain > best.gain) {
					best = c
					found = true
				}
			}
		}
		if !found {
			return
		}
		st.applyMerge(best)
	}
}

// ablationGraph is a large flat CFG that stresses merge retrieval: a
// 1 200-block fall-through backbone with a forward edge 17 blocks on from
// every third block.
func ablationGraph() *Graph {
	const n = 1200
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, Node{Size: 16 + int64(i%48), Count: uint64(1 + i%97)})
	}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, Edge{Src: i, Dst: i + 1, Weight: uint64(1 + (i*7)%100)})
		if i%3 == 0 {
			g.Edges = append(g.Edges, Edge{Src: i, Dst: (i + 17) % n, Weight: uint64(1 + i%13)})
		}
	}
	return g
}

// TestZeroOptionsMatchNaiveOnAblationGraph: the zero Options, which once
// selected the naive retrieval, lays the ablation's graph out exactly as
// the naive rescan and the materialising reference do.
func TestZeroOptionsMatchNaiveOnAblationGraph(t *testing.T) {
	g := ablationGraph()
	got, err := Layout(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := layoutNaive(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, naive) {
		t.Fatalf("heap layout diverged from the naive rescan\nheap  %v\nnaive %v", got, naive)
	}
	if ref := untunedLayout(g, Options{}); !reflect.DeepEqual(got, ref) {
		t.Fatalf("heap layout diverged from the materialising reference\n got %v\nwant %v", got, ref)
	}
}

// BenchmarkAblationExtTSP compares the naive quadratic merge retrieval
// against the heap-based logarithmic retrieval Layout runs (§4.7).
func BenchmarkAblationExtTSP(b *testing.B) {
	g := ablationGraph()
	for _, r := range retrievals {
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.layout(g, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
