// Package stats provides the small statistical toolkit used by the
// experiment harness: moments, Hamming distances (for the PHT size
// discovery of §6.3), error rates and frequency tables.
package stats

import (
	"fmt"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanUint64 returns the mean of unsigned samples as a float64.
func MeanUint64(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (the mean of the two central elements
// for even lengths), or 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// MedianUint64 returns the median of unsigned samples. Detectors prefer
// it over the mean because heavy-tailed timing noise (interrupt spikes)
// inflates means without moving typical samples.
func MedianUint64(xs []uint64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Median(fs)
}

// ErrorRate returns the fraction of positions where got differs from want.
// It panics if the slices have different lengths, since comparing
// misaligned bit streams silently would corrupt every experiment using it.
func ErrorRate(got, want []bool) float64 {
	if len(got) != len(want) {
		panic(fmt.Sprintf("stats: ErrorRate length mismatch: %d vs %d", len(got), len(want)))
	}
	if len(got) == 0 {
		return 0
	}
	errs := 0
	for i := range got {
		if got[i] != want[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(got))
}

// Hamming returns the number of positions at which a and b differ. It
// panics on length mismatch.
func Hamming[T comparable](a, b []T) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: Hamming length mismatch: %d vs %d", len(a), len(b)))
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// Freq counts occurrences of each value in xs into counts, at the slot
// index gives the value; it zeroes counts first. index must map every
// value of xs into [0, len(counts)).
func Freq[T any](xs []T, index func(T) int, counts []int) {
	clear(counts)
	for _, x := range xs {
		counts[index(x)]++
	}
}

// Mode returns the most frequent value in xs and its share of the total,
// counting through Freq into counts, so a caller with a small value set
// and a fixed array allocates nothing. For an empty slice it returns the
// zero value and 0. Ties go to the value that appears first in xs, so
// the result depends only on the input.
func Mode[T any](xs []T, index func(T) int, counts []int) (T, float64) {
	var best T
	if len(xs) == 0 {
		return best, 0
	}
	Freq(xs, index, counts)
	bestN := 0
	for _, x := range xs {
		if n := counts[index(x)]; n > bestN {
			best, bestN = x, n
		}
	}
	return best, float64(bestN) / float64(len(xs))
}

// Summary holds the first two moments of a sample set, convenient for
// rendering "mean ± stddev" rows.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// String renders the summary as "mean ± stddev (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.1f ± %.1f (n=%d)", s.Mean, s.StdDev, s.N)
}

// Percent formats a ratio as a percentage with two decimals, the format
// used by the paper's error-rate tables.
func Percent(r float64) string {
	return fmt.Sprintf("%.2f%%", 100*r)
}
