package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

// TestStdDev: Welford's standard deviation is the population one.
func TestStdDev(t *testing.T) {
	var w Welford
	w.Add(5)
	if got := w.StdDev(); got != 0 {
		t.Errorf("StdDev single = %v", got)
	}
	w = Welford{}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if got := w.StdDev(); !almost(got, 2) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v", got)
	}
	if got := Median([]float64{3, 1, 2}); !almost(got, 2) {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); !almost(got, 2.5) {
		t.Errorf("Median even = %v", got)
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated input: %v", in)
	}
}

func TestErrorRate(t *testing.T) {
	got := ErrorRate([]bool{true, false, true, true}, []bool{true, true, true, false})
	if !almost(got, 0.5) {
		t.Errorf("ErrorRate = %v, want 0.5", got)
	}
	if got := ErrorRate(nil, nil); got != 0 {
		t.Errorf("ErrorRate(nil) = %v", got)
	}
}

func TestErrorRatePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	ErrorRate([]bool{true}, []bool{true, false})
}

func TestHamming(t *testing.T) {
	if got := Hamming([]int{1, 2, 3}, []int{1, 0, 3}); got != 1 {
		t.Errorf("Hamming = %d, want 1", got)
	}
	if got := Hamming([]string{"a"}, []string{"a"}); got != 0 {
		t.Errorf("Hamming equal = %d", got)
	}
}

// twoBit lists the four probe patterns; twoBitIndex is their slot for
// Freq and Mode.
var twoBit = []string{"HH", "HM", "MH", "MM"}

func twoBitIndex(s string) int { return slices.Index(twoBit, s) }

func TestModeAndFreq(t *testing.T) {
	xs := []string{"MM", "MH", "MM", "MM", "HH"}
	var counts [4]int
	v, share := Mode(xs, twoBitIndex, counts[:])
	if v != "MM" || !almost(share, 0.6) {
		t.Errorf("Mode = %q %v", v, share)
	}
	// counts still hold Mode's tally: Freq must start from zero.
	Freq(xs, twoBitIndex, counts[:])
	if counts != [4]int{1, 0, 1, 3} {
		t.Errorf("Freq = %v", counts)
	}
	var empty []int
	if _, share := Mode(empty, func(x int) int { return x }, counts[:]); share != 0 {
		t.Errorf("Mode(empty) share = %v", share)
	}
}

// TestModeTieBreakIsFirstAppearance pins Mode's tie-break: among equally
// frequent values the first one in the input wins, on every call, with
// one counts array reused across the calls as the block analyses reuse
// theirs.
func TestModeTieBreakIsFirstAppearance(t *testing.T) {
	var counts [4]int
	for _, tc := range []struct {
		xs   []string
		want string
	}{
		{[]string{"MH", "HH", "MH", "HH", "MM"}, "MH"},
		{[]string{"HH", "MH", "MH", "HH", "MM"}, "HH"},
		{[]string{"MM", "HH", "MH", "HM"}, "MM"},
		{[]string{"HM", "MM", "HH", "MH", "MH", "HM", "HH"}, "HM"},
	} {
		for i := 0; i < 200; i++ {
			if v, share := Mode(tc.xs, twoBitIndex, counts[:]); v != tc.want {
				t.Fatalf("call %d: Mode(%v) = %q (share %v), want the first-appearing tie %q",
					i, tc.xs, v, share, tc.want)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || !almost(s.Mean, 2) || !almost(s.Min, 1) || !almost(s.Max, 3) {
		t.Errorf("Summarize = %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Error("Summarize(nil).N != 0")
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

func TestMeanStdDevUint64(t *testing.T) {
	if got := MeanUint64([]uint64{2, 4}); !almost(got, 3) {
		t.Errorf("MeanUint64 = %v", got)
	}
	if got := MeanUint64(nil); got != 0 {
		t.Errorf("MeanUint64(nil) = %v", got)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.0046); got != "0.46%" {
		t.Errorf("Percent = %q", got)
	}
}

// Property: Hamming distance is a metric on equal-length slices —
// symmetric, zero iff equal, bounded by length.
func TestQuickHammingMetric(t *testing.T) {
	f := func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		d1, d2 := Hamming(a, b), Hamming(b, a)
		if d1 != d2 || d1 < 0 || d1 > n {
			return false
		}
		if d1 == 0 {
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return Hamming(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ErrorRate is within [0,1] and equals Hamming/len.
func TestQuickErrorRate(t *testing.T) {
	f := func(a, b []bool) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		r := ErrorRate(a, b)
		if r < 0 || r > 1 {
			return false
		}
		if n == 0 {
			return r == 0
		}
		return almost(r, float64(Hamming(a, b))/float64(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
