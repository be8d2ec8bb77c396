package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := 0
	a2 := New(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not reproduce the parent's next outputs.
	p := make(map[uint64]bool)
	pp := New(7)
	pp.Uint64() // advance past the Split draw
	for i := 0; i < 50; i++ {
		p[pp.Uint64()] = true
	}
	hits := 0
	for i := 0; i < 50; i++ {
		if p[child.Uint64()] {
			hits++
		}
	}
	if hits > 1 {
		t.Errorf("child stream overlaps parent: %d hits", hits)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestUint64nRange(t *testing.T) {
	r := New(2)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(13); v >= 13 {
			t.Fatalf("Uint64n(13) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestBoolRoughlyBalanced(t *testing.T) {
	r := New(4)
	trues := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < n*45/100 || trues > n*55/100 {
		t.Errorf("Bool bias: %d/%d true", trues, n)
	}
}

func TestChanceEdges(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Chance(0) {
			t.Fatal("Chance(0) fired")
		}
		if !r.Chance(1) {
			t.Fatal("Chance(1) did not fire")
		}
		if r.Chance(-0.5) {
			t.Fatal("negative probability fired")
		}
	}
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Chance(0.25) {
			hits++
		}
	}
	if hits < n*20/100 || hits > n*30/100 {
		t.Errorf("Chance(0.25) fired %d/%d", hits, n)
	}
}

func TestBits(t *testing.T) {
	bits := New(7).Bits(100)
	if len(bits) != 100 {
		t.Fatalf("len = %d", len(bits))
	}
	trues := 0
	for _, b := range bits {
		if b {
			trues++
		}
	}
	if trues == 0 || trues == 100 {
		t.Error("degenerate bit vector")
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%64) + 1
		p := New(seed).Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Statistical sanity: bytes of the generator output look uniform enough
// for simulation use (chi-squared on 256 buckets, loose bound).
func TestUniformity(t *testing.T) {
	r := New(9)
	var counts [256]int
	const n = 1 << 16
	for i := 0; i < n; i++ {
		counts[r.Uint64()&0xff]++
	}
	expected := float64(n) / 256
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 255 degrees of freedom: mean 255, stddev ~22.6. Allow 6 sigma.
	if chi2 > 255+6*22.6 {
		t.Errorf("chi2 = %.1f, suspiciously non-uniform", chi2)
	}
}
