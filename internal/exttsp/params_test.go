package exttsp

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestZeroParamsAreGoldenDefaults pins the zero-value contract: a zero
// Params must behave exactly like a Params spelling out the paper
// defaults, for both layout and scoring, on the shared test corpus. If
// the defaults (or the zero-value resolution) ever drift, this fails.
func TestZeroParamsAreGoldenDefaults(t *testing.T) {
	explicit := Params{
		FallthroughWeight: FallthroughWeight,
		ForwardWeight:     ForwardWeight,
		BackwardWeight:    BackwardWeight,
		ForwardWindow:     ForwardWindow,
		BackwardWindow:    BackwardWindow,
	}
	if got := (Params{}).normalize(); got != explicit {
		t.Fatalf("Params{}.normalize() = %+v, want paper defaults %+v", got, explicit)
	}
	graphs := []*Graph{diamondGraph()}
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 12; trial++ {
		graphs = append(graphs, randGraph(rng, 2+rng.Intn(40)))
	}
	for gi, g := range graphs {
		for _, r := range retrievals {
			zero, err := r.layout(g, Options{ForcedFirst: 0})
			if err != nil {
				t.Fatal(err)
			}
			expl, err := r.layout(g, Options{ForcedFirst: 0, Params: explicit})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(zero, expl) {
				t.Fatalf("graph %d %s: zero-Params layout %v != explicit-defaults layout %v",
					gi, r.name, zero, expl)
			}
			if zs, es := ScoreWith(g, zero, Params{}, nil), ScoreWith(g, zero, explicit, nil); zs != es {
				t.Fatalf("graph %d %s: zero-Params score %v != explicit-defaults score %v",
					gi, r.name, zs, es)
			}
		}
	}
}

// TestNonDefaultParamsChangeScoring is a sanity check that Params are
// actually consumed: a heavily reweighted Params must score a spread-out
// order differently from the defaults on a graph with forward branches.
func TestNonDefaultParamsChangeScoring(t *testing.T) {
	g := diamondGraph()
	order := []int{0, 1, 2, 3}
	def := ScoreWith(g, order, Params{}, nil)
	hot := ScoreWith(g, order, Params{ForwardWeight: 0.9}, nil)
	if def == hot {
		t.Fatalf("ForwardWeight override did not change score (both %v)", def)
	}
}

// TestConcurrentDistinctParams is the satellite -race test: two
// goroutines sweep two different Params over the same shared Graph
// concurrently. Before Params existed this was inherently a data race
// on package globals; now it must be clean and each side must keep
// producing its own deterministic result.
func TestConcurrentDistinctParams(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	g := randGraph(rng, 48)
	pA := Params{} // paper defaults
	pB := Params{ForwardWeight: 0.4, BackwardWeight: 0.05, ForwardWindow: 2048, BackwardWindow: 1280}

	run := func(p Params) ([]int, float64) {
		order, err := Layout(g, Options{ForcedFirst: 0, Params: p})
		if err != nil {
			t.Error(err)
			return nil, 0
		}
		return order, ScoreWith(g, order, p, nil)
	}
	wantA, scoreA := run(pA)
	wantB, scoreB := run(pB)

	var wg sync.WaitGroup
	for _, side := range []struct {
		p     Params
		want  []int
		score float64
	}{{pA, wantA, scoreA}, {pB, wantB, scoreB}} {
		side := side
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := &Scratch{}
			for i := 0; i < 20; i++ {
				order, err := Layout(g, Options{ForcedFirst: 0, Params: side.p})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(order, side.want) {
					t.Errorf("concurrent layout diverged: got %v want %v", order, side.want)
					return
				}
				if s := ScoreWith(g, order, side.p, scratch); s != side.score {
					t.Errorf("concurrent score diverged: got %v want %v", s, side.score)
					return
				}
			}
		}()
	}
	wg.Wait()
}
