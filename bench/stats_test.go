package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{10, 1, 4, 7, 2}, 1.5, 4, 8.5},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := median(xs[:9]); got != 6 {
		t.Errorf("median of nine = %g, want 6", got)
	}
	for p, want := range map[float64]float64{50: 5, 90: 9, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if median(nil) != 0 || percentile(nil, 50) != 0 {
		t.Error("empty input should give 0")
	}
	if xs[0] != 10 {
		t.Error("helpers must not reorder their input")
	}
}
