package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	// 21 op times, shuffled: the median is the 11th smallest, with ten
	// samples beyond it.
	v := make([]float64, 21)
	for i := range v {
		v[i] = float64((i*8)%21 + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 11}, {0, 1}, {1, 21}, {0.9, 19}, {0.25, 6},
	} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..21, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even sample = %v, want the lower middle 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// The expected cut points are what Python's statistics.quantiles(v, n=4)
// returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
	if got, want := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("quartileSpread of one run = %v, want 0", got)
	}
}
