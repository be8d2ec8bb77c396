package stats

import (
	"math"
	"testing"
)

func within(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// Summarize is the two-pass oracle Welford replaces: the mean, population
// standard deviation, min and max of buffered samples.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.Min, s.Max = xs[0], xs[0]
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)))
	return s
}

// TestWelfordMatchesSummarize pins the contract that lets Welford
// replace the buffer-then-Summarize pattern: identical N, mean,
// population stddev, min and max on the same samples.
func TestWelfordMatchesSummarize(t *testing.T) {
	xs := []float64{64, 65, 80, 210, 64, 66, 190, 64, 1 << 20, 67}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	want := Summarize(xs)
	got := w.Summary()
	if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("Welford summary %+v, want %+v", got, want)
	}
	if !within(got.Mean, want.Mean, 1e-9*want.Mean) {
		t.Errorf("mean %v, want %v", got.Mean, want.Mean)
	}
	if !within(got.StdDev, want.StdDev, 1e-6) {
		t.Errorf("stddev %v, want %v", got.StdDev, want.StdDev)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if s := w.Summary(); s.N != 0 || s.Mean != 0 || s.StdDev != 0 || s.Min != 0 || s.Max != 0 {
		t.Errorf("empty accumulator summary = %+v", s)
	}
	w.Add(42)
	if s := w.Summary(); s.N != 1 || s.Mean != 42 || s.StdDev != 0 || s.Min != 42 || s.Max != 42 {
		t.Errorf("single-sample summary = %+v", s)
	}
}

// TestWelfordMerge: merging split halves equals accumulating the whole
// stream, the property the per-window → per-cell rollup relies on.
func TestWelfordMerge(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7}
	var whole, a, b Welford
	for i, x := range xs {
		whole.Add(x)
		if i < len(xs)/2 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() || a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged N/min/max = %d/%v/%v, want %d/%v/%v",
			a.N(), a.Min(), a.Max(), whole.N(), whole.Min(), whole.Max())
	}
	if !within(a.Mean(), whole.Mean(), 1e-12) || !within(a.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("merged mean/var = %v/%v, want %v/%v", a.Mean(), a.Variance(), whole.Mean(), whole.Variance())
	}
	// Merging into an empty accumulator copies; merging an empty one is
	// a no-op.
	var empty Welford
	empty.Merge(whole)
	if empty.N() != whole.N() || empty.Mean() != whole.Mean() {
		t.Error("merge into empty lost the source")
	}
	before := whole
	whole.Merge(Welford{})
	if whole != before {
		t.Error("merging an empty accumulator changed state")
	}
}

func TestEntropyBits(t *testing.T) {
	cases := []struct {
		ps   []float64
		want float64
	}{
		{[]float64{0.5, 0.5}, 1},
		{[]float64{1, 0}, 0},
		{[]float64{0, 0, 1}, 0},
		{[]float64{0.25, 0.25, 0.25, 0.25}, 2},
		{nil, 0},
		{[]float64{0.5, 0.5, 0, -1e-18}, 1}, // FP slop must not yield NaN
	}
	for _, c := range cases {
		if got := EntropyBits(c.ps...); !within(got, c.want, 1e-12) {
			t.Errorf("EntropyBits(%v) = %v, want %v", c.ps, got, c.want)
		}
	}
}
