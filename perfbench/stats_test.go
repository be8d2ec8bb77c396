package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0.5, false},
		{20, 0.5, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{0, 0.5, false},
	} {
		if _, ok := percentile(seq(tc.n), tc.q); ok != tc.ok {
			t.Errorf("percentile(%d samples, %g) reported %v, want %v", tc.n, tc.q, ok, tc.ok)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := seq(21) // 1..21
	if v, _ := percentile(xs, 0.5); v != 11 {
		t.Errorf("p50 of 1..21 = %v, want 11", v)
	}
	if v, _ := percentile(xs, 0.9); math.Abs(v-19) > 1e-9 {
		t.Errorf("p90 of 1..21 = %v, want 19", v)
	}
	if xs[0] != 21 {
		t.Error("percentile reordered its input")
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean = %v, want 4", g)
	}
}
