package leakage

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"branchscope/internal/rng"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// feed records n bits of each (sent, got, known) combination given as
// counts[sent][outcome] with outcome 0=decoded 0, 1=decoded 1, 2=unknown.
func feed(e *Estimator, counts [2][3]uint64) {
	for x := 0; x < 2; x++ {
		for y := 0; y < 3; y++ {
			for i := uint64(0); i < counts[x][y]; i++ {
				e.Observe(x == 1, y == 1, y != 2)
			}
		}
	}
}

func TestPerfectChannel(t *testing.T) {
	var e Estimator
	feed(&e, [2][3]uint64{{50, 0, 0}, {0, 50, 0}})
	r := e.Report()
	if r.Bits != 100 || r.Unknown != 0 || r.WrongKnown != 0 {
		t.Fatalf("counts: %+v", r)
	}
	if r.BitErrorRate != 0 {
		t.Errorf("BER = %v, want 0", r.BitErrorRate)
	}
	if !almost(r.MutualInformationBits, 1, 1e-9) {
		t.Errorf("MI = %v, want 1", r.MutualInformationBits)
	}
	if !almost(r.CapacityBits, 1, 1e-9) {
		t.Errorf("capacity = %v, want 1", r.CapacityBits)
	}
	if r.Windows != 1 {
		t.Errorf("windows = %d, want 1", r.Windows)
	}
}

// TestBSCAgainstClosedForm checks MI and capacity against the
// binary-symmetric-channel closed form 1 - H2(p).
func TestBSCAgainstClosedForm(t *testing.T) {
	// p = 0.1: 90 correct, 10 flipped per input class.
	var e Estimator
	feed(&e, [2][3]uint64{{90, 10, 0}, {10, 90, 0}})
	r := e.Report()
	want := 1 - (-0.9*math.Log2(0.9) - 0.1*math.Log2(0.1))
	if !almost(r.MutualInformationBits, want, 1e-9) {
		t.Errorf("MI = %v, want %v", r.MutualInformationBits, want)
	}
	// Symmetric channel + uniform empirical input: capacity == MI.
	if !almost(r.CapacityBits, want, 1e-6) {
		t.Errorf("capacity = %v, want %v", r.CapacityBits, want)
	}
	if !almost(r.BitErrorRate, 0.1, 1e-12) {
		t.Errorf("BER = %v, want 0.1", r.BitErrorRate)
	}
}

// TestCapacityExceedsMIOnSkewedInput: with a non-uniform empirical
// input distribution on a clean channel, Blahut–Arimoto finds the
// optimal input and reports more than the empirical MI.
func TestCapacityExceedsMIOnSkewedInput(t *testing.T) {
	var e Estimator
	feed(&e, [2][3]uint64{{90, 0, 0}, {0, 10, 0}}) // 90/10 split, error-free
	r := e.Report()
	if !(r.CapacityBits > r.MutualInformationBits) {
		t.Errorf("capacity %v should exceed MI %v on skewed input", r.CapacityBits, r.MutualInformationBits)
	}
	if !almost(r.CapacityBits, 1, 1e-6) {
		t.Errorf("capacity = %v, want 1 (noiseless binary channel)", r.CapacityBits)
	}
}

// TestAllUnknownWindow is the degenerate case the golden promtext test
// also exercises: every read gives up, MI and capacity are exactly 0,
// BER is exactly 0.5, and the report marshals cleanly (no NaN/Inf).
func TestAllUnknownWindow(t *testing.T) {
	var e Estimator
	feed(&e, [2][3]uint64{{0, 0, 30}, {0, 0, 30}})
	r := e.Report()
	if r.BitErrorRate != 0.5 {
		t.Errorf("BER = %v, want 0.5", r.BitErrorRate)
	}
	if r.MutualInformationBits != 0 || r.CapacityBits != 0 {
		t.Errorf("MI/capacity = %v/%v, want exact zeros", r.MutualInformationBits, r.CapacityBits)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

// TestOneSidedPattern: a constant (all-ones) pattern leaves the sent-0
// row unobserved; capacity must fall back to the empirical MI (0).
func TestOneSidedPattern(t *testing.T) {
	var e Estimator
	feed(&e, [2][3]uint64{{0, 0, 0}, {2, 28, 0}})
	r := e.Report()
	if r.MutualInformationBits != 0 {
		t.Errorf("MI = %v, want 0 (H(X)=0)", r.MutualInformationBits)
	}
	if r.CapacityBits != r.MutualInformationBits {
		t.Errorf("capacity = %v, want MI fallback %v", r.CapacityBits, r.MutualInformationBits)
	}
}

func TestSNR(t *testing.T) {
	var e Estimator
	// Two well-separated populations with a little spread.
	for _, v := range []float64{60, 62, 64, 62} {
		e.Signal(false, v)
	}
	for _, v := range []float64{200, 204, 196, 200} {
		e.Signal(true, v)
	}
	r := e.Report()
	if r.SNR <= 100 {
		t.Errorf("SNR = %v, want large for separated populations", r.SNR)
	}
	if r.Signal[0].N != 4 || r.Signal[1].N != 4 {
		t.Errorf("signal Ns = %+v", r.Signal)
	}

	// Zero pooled variance must clamp to 0, not +Inf.
	var z Estimator
	z.Signal(false, 100)
	z.Signal(true, 100)
	if rz := z.Report(); rz.SNR != 0 {
		t.Errorf("degenerate SNR = %v, want 0", rz.SNR)
	}
	// One-sided signal: unestimable, 0.
	var one Estimator
	one.Signal(true, 7)
	if ro := one.Report(); ro.SNR != 0 {
		t.Errorf("one-sided SNR = %v, want 0", ro.SNR)
	}
}

// TestMergeEqualsWhole: merging per-window estimators must equal one
// estimator fed the concatenated stream — the per-cell rollup contract.
func TestMergeEqualsWhole(t *testing.T) {
	var whole, w1, w2, cell Estimator
	feed(&whole, [2][3]uint64{{40, 5, 5}, {3, 45, 2}})
	feed(&w1, [2][3]uint64{{20, 3, 2}, {1, 22, 2}})
	feed(&w2, [2][3]uint64{{20, 2, 3}, {2, 23, 0}})
	for i := 0; i < 10; i++ {
		v := float64(60 + i)
		whole.Signal(false, v)
		w1.Signal(false, v)
		v = float64(200 + i)
		whole.Signal(true, v)
		w2.Signal(true, v)
	}
	cell.Merge(&w1)
	cell.Merge(&w2)
	got, want := cell.Report(), whole.Report()
	if got.Confusion != want.Confusion {
		t.Fatalf("confusion %+v, want %+v", got.Confusion, want.Confusion)
	}
	if !almost(got.MutualInformationBits, want.MutualInformationBits, 1e-12) ||
		!almost(got.SNR, want.SNR, 1e-9) {
		t.Errorf("merged MI/SNR = %v/%v, want %v/%v",
			got.MutualInformationBits, got.SNR, want.MutualInformationBits, want.SNR)
	}
	if got.Windows != 2 {
		t.Errorf("windows = %d, want 2", got.Windows)
	}
}

// TestReportDeterminism: identical observation sequences produce
// byte-identical JSON — the property the parallel-diff CI gate needs.
func TestReportDeterminism(t *testing.T) {
	build := func() []byte {
		var e Estimator
		feed(&e, [2][3]uint64{{37, 4, 9}, {2, 41, 7}})
		for i := 0; i < 50; i++ {
			e.Signal(i%2 == 0, float64(64+i%7*31))
		}
		r := e.Report()
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Errorf("reports differ:\n%s\n%s", a, b)
	}
}

func TestPublishSlots(t *testing.T) {
	// Note: slots are process-wide; this test owns them within the
	// package's test binary.
	if LatestReport() != nil && LatestReport().Schema != Schema {
		t.Fatalf("unexpected pre-published report")
	}
	var e Estimator
	feed(&e, [2][3]uint64{{10, 0, 0}, {0, 10, 0}})
	r := e.Report()
	PublishReport(r)
	got := LatestReport()
	if got == nil || got.Bits != 20 {
		t.Fatalf("LatestReport = %+v", got)
	}
	// The returned copy must not alias the slot.
	got.Bits = 999
	if LatestReport().Bits != 20 {
		t.Error("LatestReport returned an aliased pointer")
	}

	PublishIntrospection(nil) // must be a no-op
	type snap struct{ Size int }
	PublishIntrospection(snap{Size: 1024})
	if s, ok := LatestIntrospection().(snap); !ok || s.Size != 1024 {
		t.Errorf("LatestIntrospection = %#v", LatestIntrospection())
	}

	// The export stamps the run ID it is given; the slot carries none.
	var buf bytes.Buffer
	if err := WriteLatestReport(&buf, "bsr-0123"); err != nil {
		t.Fatalf("WriteLatestReport: %v", err)
	}
	var exported Report
	if err := json.Unmarshal(buf.Bytes(), &exported); err != nil {
		t.Fatalf("report export is not JSON: %v\n%s", err, buf.String())
	}
	if exported.Schema != Schema || exported.RunID != "bsr-0123" || exported.Bits != 20 {
		t.Errorf("report export = %+v, want schema %s, run ID bsr-0123, 20 bits", exported, Schema)
	}
	if id := LatestReport().RunID; id != "" {
		t.Errorf("published slot carries run ID %q", id)
	}
}

// checkProperties checks one report against the definitions: BER
// agrees with the confusion matrix, and 0 ≤ MI ≤ capacity ≤ 1 bit.
func checkProperties(t *testing.T, conf [2][3]uint64) Report {
	t.Helper()
	e := Estimator{conf: conf}
	r := e.Report()
	wrong := conf[0][1] + conf[1][0]
	unknown := conf[0][2] + conf[1][2]
	bits := wrong + unknown + conf[0][0] + conf[1][1]
	ber := 0.0
	if bits > 0 {
		ber = (float64(wrong) + 0.5*float64(unknown)) / float64(bits)
	}
	if r.Bits != bits || r.WrongKnown != wrong || r.Unknown != unknown || r.BitErrorRate != ber {
		t.Errorf("%v: bits/wrong/unknown/BER = %d/%d/%d/%v, want %d/%d/%d/%v",
			conf, r.Bits, r.WrongKnown, r.Unknown, r.BitErrorRate, bits, wrong, unknown, ber)
	}
	if mi, c := r.MutualInformationBits, r.CapacityBits; !(0 <= mi && mi <= c && c <= 1) {
		t.Errorf("%v: MI %.9g, capacity %.9g: want 0 <= MI <= capacity <= 1", conf, mi, c)
	}
	return r
}

// TestLeakageProperties runs checkProperties over table cases and
// seeded random 2×3 confusion matrices, and pins the two extremes: a
// noiseless channel carries 1 bit, an input-independent one 0.
func TestLeakageProperties(t *testing.T) {
	for _, conf := range [][2][3]uint64{
		// 64 Blahut–Arimoto iterations from the uniform start stop
		// short of this channel's MI.
		{{1552, 19, 22}, {2753, 32, 0}},
		{{0, 0, 0}, {0, 0, 0}},
		{{5, 0, 0}, {0, 0, 0}},
		{{0, 0, 9}, {0, 0, 3}},
	} {
		checkProperties(t, conf)
	}
	for _, conf := range [][2][3]uint64{
		{{50, 0, 0}, {0, 50, 0}},
		{{1, 0, 0}, {0, 999, 0}},
		{{0, 7, 0}, {3, 0, 0}},
		{{0, 0, 4}, {0, 9, 0}},
	} {
		if r := checkProperties(t, conf); !almost(r.CapacityBits, 1, 1e-12) {
			t.Errorf("noiseless %v: capacity %v, want 1", conf, r.CapacityBits)
		}
	}
	for _, conf := range [][2][3]uint64{
		{{10, 20, 30}, {10, 20, 30}},
		{{3, 1, 0}, {300, 100, 0}},
		{{7, 0, 2}, {21, 0, 6}},
	} {
		if r := checkProperties(t, conf); !almost(r.CapacityBits, 0, 1e-12) {
			t.Errorf("input-independent %v: capacity %v, want 0", conf, r.CapacityBits)
		}
	}
	r := rng.New(1)
	scales := []uint64{2, 10, 100, 10000}
	for i := 0; i < 20000; i++ {
		var conf [2][3]uint64
		for x := range conf {
			scale := scales[r.Intn(len(scales))]
			for y := range conf[x] {
				if r.Intn(4) != 0 {
					conf[x][y] = r.Uint64n(scale)
				}
			}
		}
		checkProperties(t, conf)
		if t.Failed() {
			return
		}
	}
}
