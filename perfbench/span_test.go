package main

import "testing"

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	for _, tc := range []struct {
		name string
		kids []interval
		self int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping count once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to the parent", []interval{{-50, 10}, {90, 200}}, 80},
		{"outside the parent", []interval{{200, 300}}, 100},
		{"unsorted", []interval{{60, 70}, {0, 10}}, 80},
	} {
		if got := selfTime(interval{0, 100}, tc.kids); got != tc.self {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.self)
		}
	}
}
