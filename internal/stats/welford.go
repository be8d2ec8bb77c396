package stats

import "math"

// Welford is a streaming first-two-moments accumulator (Welford's
// online algorithm): mean and variance without buffering the samples,
// numerically stable against the catastrophic cancellation a naive
// sum-of-squares accumulator suffers on large cycle counts. The zero
// value is an empty accumulator ready for Add.
//
// It serves sample loops whose populations are too large to buffer
// (the Figure 7/9 latency characterizations collect 10^5 samples per
// case) and backs the leakage estimators, which must run online per
// attack window.
type Welford struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another accumulator into w (Chan et al.'s parallel
// variant), so per-window accumulators combine into per-cell ones.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := float64(w.n + o.n)
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/n
	w.mean += d * float64(o.n) / n
	w.n += o.n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// N returns the number of samples recorded.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 with fewer than two
// samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest sample (0 when empty).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest sample (0 when empty).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// Summary renders the accumulator as a Summary.
func (w *Welford) Summary() Summary {
	return Summary{
		N:      int(w.n),
		Mean:   w.Mean(),
		StdDev: w.StdDev(),
		Min:    w.Min(),
		Max:    w.Max(),
	}
}

// EntropyBits returns the Shannon entropy, in bits, of a distribution
// given as probabilities. Zero (and negative, from floating-point
// slop) terms contribute nothing — the 0·log 0 = 0 convention — so
// degenerate channels (an all-Unknown window, a constant pattern)
// yield exact zeros instead of NaN.
func EntropyBits(ps ...float64) float64 {
	h := 0.0
	for _, p := range ps {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}
