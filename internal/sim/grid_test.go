package sim_test

// Multi-grid sampling: one run that samples several LBR phases at once
// must give each grid exactly what a run at that phase alone samples.

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"propeller/internal/profile"
	"propeller/internal/sim"
)

// gridRun is what a multi-grid run hands its callback, and how it ends.
type gridRun struct {
	streams [][]byte // by grid, each grid's samples as profile wire bytes
	order   []int    // the grid of every callback, in call order
	end     sampled  // exit, instruction count and fault; no profile
}

// runGrids runs cfg with grids sampling grids, collecting every callback;
// failAt, when positive, makes the failAt-th callback return errStop.
func runGrids(t *testing.T, run runFunc, cfg sim.Config, grids, failAt int) (gridRun, error) {
	t.Helper()
	profs := make([]*profile.Profile, grids)
	for h := range profs {
		profs[h] = &profile.Profile{Period: cfg.LBRPeriod}
	}
	var out gridRun
	cfg.LBRGrids = grids
	cfg.OnGridSample = func(h int, s profile.Sample) error {
		if h < 0 || h >= grids {
			t.Fatalf("grid %d of %d", h, grids)
		}
		out.order = append(out.order, h)
		if len(out.order) == failAt {
			return errStop
		}
		profs[h].Samples = append(profs[h].Samples, profile.Sample{Records: append([]profile.Branch(nil), s.Records...)})
		return nil
	}
	res, err := run(cfg)
	if res == nil {
		t.Fatalf("nil result (err %v)", err)
	}
	if res.Profile != nil {
		t.Error("a multi-grid run materialized Result.Profile")
	}
	for _, p := range profs {
		out.streams = append(out.streams, p.AppendWire(nil))
	}
	out.end.Exit, out.end.Insts = res.Exit, res.Insts
	var re *sim.RunError
	if errors.As(err, &re) {
		out.end.Faulted, out.end.PC, out.end.Inst, out.end.Msg = true, re.PC, re.Inst, re.Msg
		err = nil
	}
	return out, err
}

var errStop = errors.New("stop")

// singleRuns is what grids separate single-phase runs of cfg stream: each
// grid's wire bytes, the run's end, and the grid order a shared run must
// call back in (sample points ascending, grids ascending at a shared one).
func singleRuns(t *testing.T, run runFunc, cfg sim.Config, grids int) gridRun {
	t.Helper()
	type point struct{ at, grid uint64 }
	var points []point
	var want gridRun
	for h := 0; h < grids; h++ {
		c := cfg
		c.LBRPhase = cfg.LBRPhase + uint64(h)
		s := sample(t, run, c)
		want.streams = append(want.streams, s.Streamed)
		s.Profile, s.Batches, s.Streamed, s.StreamedInsts = nil, nil, nil, 0
		if h == 0 {
			want.end = s
		} else if !reflect.DeepEqual(s, want.end) {
			t.Fatalf("phase %d ends unlike phase %d: %+v, %+v", c.LBRPhase, cfg.LBRPhase, s, want.end)
		}
		n, err := profile.ReadBytes(want.streams[h])
		if err != nil {
			t.Fatal(err)
		}
		first := c.LBRPeriod - c.LBRPhase%c.LBRPeriod
		for k := range n.Samples {
			points = append(points, point{first + uint64(k)*c.LBRPeriod, uint64(h)})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].at != points[j].at {
			return points[i].at < points[j].at
		}
		return points[i].grid < points[j].grid
	})
	for _, p := range points {
		want.order = append(want.order, int(p.grid))
	}
	return want
}

// TestGridsMatchSinglePhase: for every program and fault binary, modeled
// and functional, each grid of a multi-grid run streams the wire bytes of
// the run at its phase alone, in the order the sample points fall, and the
// run ends (exit, instructions, fault) as those do. The grids cover one
// grid, grids within the period, grids whose phases wrap past it, more
// grids than the period (grids h and h+period share every point), period
// 1, and budgets that end the run on, before and after a sample point.
func TestGridsMatchSinglePhase(t *testing.T) {
	type cell struct {
		period, phase uint64
		grids         int
		max           uint64
	}
	cells := []cell{
		{period: 97, phase: 0, grids: 1},
		{period: 97, phase: 3, grids: 8},
		{period: 7, phase: 5, grids: 4},  // phases 5, 6, 7, 8: across the period
		{period: 7, phase: 3, grids: 10}, // grids 0..2 and 7..9 share every point
		{period: 7, phase: 6, grids: 7},  // every instruction is some grid's
		{period: 1, phase: 0, grids: 3},
		{period: 211, phase: 209, grids: 2},
	}
	// Budgets around sample points of the dense grids.
	for _, max := range []uint64{1, 2, 6, 7, 8, 13, 14, 15, 97, 300} {
		cells = append(cells, cell{period: 7, phase: 3, grids: 3, max: max}, cell{period: 7, phase: 5, grids: 9, max: max})
	}
	for _, s := range append(programs(t), faults(t)...) {
		for _, c := range cells {
			for _, functional := range []bool{false, true} {
				cfg := sim.Config{LBRPeriod: c.period, LBRPhase: c.phase, StackSize: 1 << 14, DisableUarch: functional, MaxInsts: c.max}
				if c.max == 0 && c.period < 97 {
					cfg.MaxInsts = 20_000 // as the differential suite's dense grids
				}
				name := fmt.Sprintf("%s/period=%d/phase=%d/grids=%d/max=%d/functional=%v", s.name, c.period, c.phase, c.grids, cfg.MaxInsts, functional)
				want := singleRuns(t, s.run, cfg, c.grids)
				got, err := runGrids(t, s.run, cfg, c.grids, 0)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got.end, want.end) {
					t.Errorf("%s: run ends %+v, single-phase runs %+v", name, got.end, want.end)
				}
				for h := range want.streams {
					if !reflect.DeepEqual(got.streams[h], want.streams[h]) {
						t.Errorf("%s: grid %d streams %d bytes unlike its single-phase run's %d", name, h, len(got.streams[h]), len(want.streams[h]))
					}
				}
				if !reflect.DeepEqual(got.order, want.order) {
					t.Errorf("%s: grids called back in an order other than their sample points'", name)
				}
			}
		}
		if t.Failed() {
			return
		}
	}
}

// TestGridCallbackError: an error from the callback ends the run at once
// and comes back from Run unchanged; what was delivered before it is a
// prefix of each grid's stream, in sample-point order.
func TestGridCallbackError(t *testing.T) {
	s := programs(t)[1] // fib
	cfg := sim.Config{LBRPeriod: 7, LBRPhase: 2, StackSize: 1 << 14, MaxInsts: 20_000}
	const grids = 9 // grids 0 and 7, 1 and 8 share their points
	want := singleRuns(t, s.run, cfg, grids)
	for _, failAt := range []int{1, 2, 5, 6, 7, 40} {
		for _, functional := range []bool{false, true} {
			cfg.DisableUarch = functional
			got, err := runGrids(t, s.run, cfg, grids, failAt)
			if err != errStop {
				t.Fatalf("failAt %d: err = %v, want the callback's", failAt, err)
			}
			if !reflect.DeepEqual(got.order, want.order[:failAt]) {
				t.Errorf("failAt %d functional %v: called back %v, want %v", failAt, functional, got.order, want.order[:failAt])
			}
			for h := range want.streams {
				p, err := profile.ReadBytes(got.streams[h])
				if err != nil {
					t.Fatal(err)
				}
				full, _ := profile.ReadBytes(want.streams[h])
				if len(p.Samples) > len(full.Samples) || !reflect.DeepEqual(p.Samples, full.Samples[:len(p.Samples)]) {
					t.Errorf("failAt %d: grid %d's %d samples are not a prefix of its stream", failAt, h, len(p.Samples))
				}
			}
		}
	}
}

// TestGridsNeedCallback: more than one grid with nowhere to send them is
// refused before the run starts.
func TestGridsNeedCallback(t *testing.T) {
	s := programs(t)[0]
	if _, err := s.run(sim.Config{LBRPeriod: 7, LBRGrids: 2}); err == nil {
		t.Error("LBRGrids 2 without OnGridSample ran")
	}
}
