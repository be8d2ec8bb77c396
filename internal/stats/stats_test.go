package stats

import (
	"math"
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

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{5}); got != 0 {
		t.Errorf("StdDev single = %v", got)
	}
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almost(got, 2) {
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

func TestModeAndFreq(t *testing.T) {
	xs := []string{"MM", "MH", "MM", "MM", "HH"}
	v, share := Mode(xs)
	if v != "MM" || !almost(share, 0.6) {
		t.Errorf("Mode = %q %v", v, share)
	}
	f := Freq(xs)
	if f["MM"] != 3 || f["MH"] != 1 || f["HH"] != 1 {
		t.Errorf("Freq = %v", f)
	}
	var empty []int
	if _, share := Mode(empty); share != 0 {
		t.Errorf("Mode(empty) share = %v", share)
	}
}

// TestModeTieBreakIsFirstAppearance pins Mode's tie-break: among equally
// frequent values the first one in the input wins, on every call. Map
// iteration order is randomized per range statement, so a tie-break that
// depends on it returns different values across repeated calls.
func TestModeTieBreakIsFirstAppearance(t *testing.T) {
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
			if v, share := Mode(tc.xs); v != tc.want {
				t.Fatalf("call %d: Mode(%v) = %q (share %v), want the first-appearing tie %q",
					i, tc.xs, v, share, tc.want)
			}
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 11} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("Under=%d Over=%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Errorf("bin0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 2
		t.Errorf("bin1 = %d, want 1", h.Counts[1])
	}
	if h.Counts[4] != 1 { // 9.99
		t.Errorf("bin4 = %d, want 1", h.Counts[4])
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d", h.Total())
	}
	if got := h.BinCenter(0); !almost(got, 1) {
		t.Errorf("BinCenter(0) = %v", got)
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
	su := SummarizeUint64([]uint64{10, 20})
	if !almost(su.Mean, 15) {
		t.Errorf("SummarizeUint64 mean = %v", su.Mean)
	}
}

func TestMeanStdDevUint64(t *testing.T) {
	if got := MeanUint64([]uint64{2, 4}); !almost(got, 3) {
		t.Errorf("MeanUint64 = %v", got)
	}
	if got := MeanUint64(nil); got != 0 {
		t.Errorf("MeanUint64(nil) = %v", got)
	}
	if got := StdDevUint64([]uint64{7}); got != 0 {
		t.Errorf("StdDevUint64 single = %v", got)
	}
	if got := StdDevUint64([]uint64{2, 4, 4, 4, 5, 5, 7, 9}); !almost(got, 2) {
		t.Errorf("StdDevUint64 = %v", got)
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
