package bpu

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestIntrospectCountsAndHeatmap drives the unit through known-outcome
// branches and checks the lifetime diagnostics: commits count every
// non-static committed branch, mispredicts count direction misses, and
// every miss lands in the heatmap set of the component index used.
func TestIntrospectCountsAndHeatmap(t *testing.T) {
	u := New(testConfig())
	const addr = 0x400100
	// Fresh table, SelectorInit 0 → bimodal path, predicts not-taken.
	// Execute taken twice: the first resolves against a not-taken
	// prediction (mispredict), the second against weakly-not-taken
	// (still a mispredict on Textbook2Bit: WN predicts not-taken).
	misses := uint64(0)
	for i := 0; i < 4; i++ {
		if predicted, _, _ := execAt(u, 0, addr, true, addr+64); !predicted {
			misses++
		}
	}
	in := u.Introspect()
	if in.Commits != 4 {
		t.Errorf("commits = %d, want 4", in.Commits)
	}
	if in.Mispredicts != misses || misses == 0 {
		t.Errorf("mispredicts = %d, want %d (nonzero)", in.Mispredicts, misses)
	}
	var heatTotal uint64
	for _, h := range in.Heatmap {
		heatTotal += h
	}
	if heatTotal != in.Mispredicts {
		t.Errorf("heatmap sums to %d, want %d", heatTotal, in.Mispredicts)
	}
	if len(in.Heatmap) != heatSets(u.cfg.PHTSize) {
		t.Errorf("heatmap has %d sets, want %d", len(in.Heatmap), heatSets(u.cfg.PHTSize))
	}
	if in.PHT.Size != u.cfg.PHTSize || in.PHT.FSM == "" {
		t.Errorf("pht introspection = %+v", in.PHT)
	}
	// The trained entry must be counted under a taken-side label now.
	if in.PHT.StateCounts["ST"] == 0 {
		t.Errorf("state counts %v missing the trained ST entry", in.PHT.StateCounts)
	}
}

// TestIntrospectStaticExcluded: statically predicted branches never
// commit, so they must not move the diagnostics.
func TestIntrospectStaticExcluded(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = StaticOnly
	u := New(cfg)
	for i := 0; i < 8; i++ {
		execAt(u, 0, 0x400100, true, 0x400164) // always mispredicted, never counted
	}
	in := u.Introspect()
	if in.Commits != 0 || in.Mispredicts != 0 {
		t.Errorf("static branches counted: commits=%d mispredicts=%d", in.Commits, in.Mispredicts)
	}
}

// TestDiagnosticsSurviveSnapshotRestore: Snapshot/Restore is a replay
// memoization; rewinding it must not rewind the monotonic diagnostics,
// while Reset (power-on) must zero them.
func TestDiagnosticsSurviveSnapshotRestore(t *testing.T) {
	u := New(testConfig())
	snap := u.Snapshot()
	execAt(u, 0, 0x400100, true, 0x400164)
	before := u.Introspect()
	u.Restore(snap)
	after := u.Introspect()
	if after.Commits != before.Commits || after.Mispredicts != before.Mispredicts {
		t.Errorf("Restore rewound diagnostics: %+v -> %+v", before, after)
	}
	u.Reset()
	in := u.Introspect()
	if in.Commits != 0 || in.Mispredicts != 0 {
		t.Errorf("Reset left diagnostics: %+v", in)
	}
	for _, h := range in.Heatmap {
		if h != 0 {
			t.Errorf("Reset left heatmap: %v", in.Heatmap)
		}
	}
}

// TestIntrospectionJSONDeterministic: identical predictor states must
// serialize byte-identically (map keys sort, entries are base64).
func TestIntrospectionJSONDeterministic(t *testing.T) {
	build := func() []byte {
		u := New(testConfig())
		for i := 0; i < 32; i++ {
			execAt(u, 0, 0x400000+uint64(i)*6, i%3 == 0, 0x500000)
		}
		data, err := json.Marshal(u.Introspect())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Error("introspection JSON is not deterministic")
	}
	// The snapshot must be self-contained: mutating the unit afterwards
	// must not change an already-taken introspection.
	u := New(testConfig())
	in := u.Introspect()
	entry0 := in.PHT.Entries[0]
	for i := 0; i < 8; i++ {
		execAt(u, 0, 0x400100, true, 0x400164)
	}
	if in.PHT.Entries[0] != entry0 || in.Commits != 0 {
		t.Error("introspection aliases live unit state")
	}
}

// TestHeatSets pins the resolution rule.
func TestHeatSets(t *testing.T) {
	cases := []struct{ size, want int }{{1, 1}, {16, 16}, {63, 63}, {64, 64}, {1024, 64}, {16384, 64}}
	for _, c := range cases {
		if got := heatSets(c.size); got != c.want {
			t.Errorf("heatSets(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}
