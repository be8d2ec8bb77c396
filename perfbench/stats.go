package main

import (
	"math"
	"slices"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: a p99 needs at least 1000 samples, a p50 20.
const minBeyond = 10

// percentile returns the q-quantile of xs (0 < q < 1), interpolating
// linearly between order statistics, and whether at least minBeyond
// samples lie beyond it. Callers omit a percentile that reports false.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	beyond := n - int(math.Ceil(q*float64(n)-1e-9))
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(n-1)
	lo := int(pos)
	v := s[lo]
	if lo+1 < n {
		v += (pos - float64(lo)) * (s[lo+1] - s[lo])
	}
	return v, beyond >= minBeyond
}

// median is the 0.5-quantile of xs without the sample-count rule, for
// statistics over a handful of repeated measurements (set-up times,
// rounds) rather than over a latency distribution. It is 0 for no data.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean is the geometric mean of positive values (0 for no data).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean is the arithmetic mean (0 for no data).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
