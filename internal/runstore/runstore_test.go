package runstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testIdentity() Identity {
	return Identity{
		Program:  "experiments",
		BaseSeed: 42,
		Quick:    true,
		Tasks:    []string{"fig2", "table1"},
		Config:   map[string]any{"timeout": "2m0s", "retry": float64(3)},
	}
}

func TestRunIDDeterministic(t *testing.T) {
	id := testIdentity()
	a, b := id.RunID(), testIdentity().RunID()
	if a != b {
		t.Fatalf("RunID not deterministic: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, "bsr-") || len(a) != 4+16 {
		t.Fatalf("RunID %q: want bsr-<16 hex digits>", a)
	}
}

func TestRunIDNormalizesEmpty(t *testing.T) {
	a := Identity{Program: "p"}.RunID()
	b := Identity{Program: "p", Tasks: []string{}, Config: map[string]any{}}.RunID()
	if a != b {
		t.Fatalf("nil and empty Tasks/Config must hash alike: %q vs %q", a, b)
	}
}

func TestRunIDSensitivity(t *testing.T) {
	base := testIdentity()
	variants := map[string]Identity{}
	v := base
	v.BaseSeed = 43
	variants["seed"] = v
	v = base
	v.Quick = false
	variants["quick"] = v
	v = base
	v.Tasks = []string{"table1", "fig2"} // order is part of the family
	variants["task order"] = v
	v = base
	v.Config = map[string]any{"timeout": "2m0s", "retry": float64(4)}
	variants["config"] = v
	for name, variant := range variants {
		if variant.RunID() == base.RunID() {
			t.Errorf("changing %s did not change the RunID", name)
		}
	}
}

// TestRunIDSurvivesRoundTrip guards the property the docs promise: an
// identity loaded back from a manifest (config values now generic JSON
// types) re-derives the same RunID.
func TestRunIDSurvivesRoundTrip(t *testing.T) {
	id := testIdentity()
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	var back Identity
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if got, want := back.RunID(), id.RunID(); got != want {
		t.Fatalf("RunID after JSON round trip = %q, want %q", got, want)
	}
}

func TestNewManifestCanonicalizes(t *testing.T) {
	id := testIdentity()
	m := NewManifest(id, []TaskOutcome{
		{ID: "table1", Seed: 2, Outcome: "retried-ok", Attempts: 2},
		{ID: "fig2", Seed: 1, Outcome: "error", Error: "boom\ngoroutine 7 [running]:"},
	})
	if m.RunID != id.RunID() {
		t.Fatalf("manifest RunID %q != identity RunID %q", m.RunID, id.RunID())
	}
	if got := []string{m.Outcomes[0].ID, m.Outcomes[1].ID}; got[0] != "fig2" || got[1] != "table1" {
		t.Fatalf("outcomes not sorted by ID: %v", got)
	}
	if m.Outcomes[0].Error != "boom" {
		t.Fatalf("error not truncated to first line: %q", m.Outcomes[0].Error)
	}
	if m.Counts["error"] != 1 || m.Counts["retried-ok"] != 1 {
		t.Fatalf("counts wrong: %v", m.Counts)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest(testIdentity(), []TaskOutcome{{ID: "fig2", Seed: 1, Outcome: "ok", Attempts: 1}})
	m.Artifacts = []Artifact{
		{Kind: "ledger", Name: "ledger.jsonl", Volatile: true},
		{Kind: "report", Name: "report.txt", Digest: DigestBytes([]byte("x"))},
	}

	var a, b bytes.Buffer
	if err := WriteManifest(&a, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(&b, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteManifest is not byte-stable for identical input")
	}

	back, err := ReadManifest(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, m)
	}

	// Re-rendering the loaded manifest must reproduce the bytes — the
	// property bsctl diff and the CI cmp smoke rely on.
	var c bytes.Buffer
	if err := WriteManifest(&c, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("manifest bytes not stable across a read/write round trip")
	}
}

func TestReadManifestRejectsSchema(t *testing.T) {
	if _, err := ReadManifest(strings.NewReader(`{"schema":"branchscope.run/v0"}`)); err == nil {
		t.Fatal("want schema error, got nil")
	}
}

func TestListSkipsIncomplete(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest(testIdentity(), nil)
	if err := os.MkdirAll(filepath.Join(dir, m.RunID), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, m.RunID, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(f, m); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// An interrupted archive (no manifest) and a stray file are skipped.
	if err := os.MkdirAll(filepath.Join(dir, "bsr-interrupted"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	runs, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].RunID != m.RunID {
		t.Fatalf("List = %+v, want exactly %s", runs, m.RunID)
	}
}

func TestSampleFromBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_hotpath.json")
	doc := `{"batched_ns_per_branch": 3.5, "speedup": 2.4, "pass": true, "note": "text ignored"}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := SampleFromBench(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Sample{
		"BENCH_hotpath.batched_ns_per_branch": 3.5,
		"BENCH_hotpath.speedup":               2.4,
		"BENCH_hotpath.pass":                  1,
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("sample = %v, want %v", s, want)
	}
}

func TestCheckTruePositiveFalsePositive(t *testing.T) {
	baseline := []Sample{
		{"BENCH_hotpath.speedup": 2.4, "leakage.bit_error_rate": 0.01},
		{"BENCH_hotpath.speedup": 2.5, "leakage.bit_error_rate": 0.012},
		{"BENCH_hotpath.speedup": 2.6, "leakage.bit_error_rate": 0.011},
	}
	opt := DefaultCheckOptions()

	// False-positive check: a candidate inside normal variation passes.
	ok := Sample{"BENCH_hotpath.speedup": 2.45, "leakage.bit_error_rate": 0.011}
	if n := Drifted(Check(baseline, ok, opt)); n != 0 {
		t.Fatalf("in-band candidate flagged %d drifts", n)
	}

	// True-positive check: a collapsed speedup and an exploded BER gate.
	bad := Sample{"BENCH_hotpath.speedup": 1.0, "leakage.bit_error_rate": 0.4}
	findings := Check(baseline, bad, opt)
	if n := Drifted(findings); n != 2 {
		t.Fatalf("synthetic regression flagged %d drifts, want 2: %+v", n, findings)
	}
}

func TestCheckNoisyMetricTolerance(t *testing.T) {
	baseline := []Sample{{"BENCH_hotpath.batched_ns_per_branch": 4.0}}
	opt := DefaultCheckOptions()
	// 3x a wall-clock series is machine noise, not drift (RelNoisy 4).
	if n := Drifted(Check(baseline, Sample{"BENCH_hotpath.batched_ns_per_branch": 12}, opt)); n != 0 {
		t.Fatalf("3x on a noisy ns series flagged as drift")
	}
	// 6x is out even for wall clocks.
	if n := Drifted(Check(baseline, Sample{"BENCH_hotpath.batched_ns_per_branch": 24}, opt)); n != 1 {
		t.Fatalf("6x on a noisy ns series not flagged")
	}
	// The same 3x on a dimensionless ratio IS drift (Rel 0.25).
	if n := Drifted(Check([]Sample{{"BENCH_hotpath.speedup": 4.0}}, Sample{"BENCH_hotpath.speedup": 12}, opt)); n != 1 {
		t.Fatalf("3x on a ratio series not flagged")
	}
}

func TestCheckZeroMedianAbsFloor(t *testing.T) {
	baseline := []Sample{{"leakage.bit_error_rate": 0}}
	// Exactly zero baseline: any visible error rate is drift ...
	if n := Drifted(Check(baseline, Sample{"leakage.bit_error_rate": 0.05}, DefaultCheckOptions())); n != 1 {
		t.Fatal("nonzero BER vs zero baseline not flagged")
	}
	// ... but float dust under the absolute floor is not.
	if n := Drifted(Check(baseline, Sample{"leakage.bit_error_rate": 1e-12}, DefaultCheckOptions())); n != 0 {
		t.Fatal("sub-Abs fuzz flagged as drift")
	}
}

func TestCheckSkipsUnsharedMetrics(t *testing.T) {
	baseline := []Sample{{"a": 1, "only_base": 5}}
	findings := Check(baseline, Sample{"a": 1, "only_cand": 9}, DefaultCheckOptions())
	if len(findings) != 1 || findings[0].Metric != "a" {
		t.Fatalf("want exactly the shared metric, got %+v", findings)
	}
}

func TestLoadSamplesBenchDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_a.json"), []byte(`{"x": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_b.json"), []byte(`{"y": 2, "pass": false}`), 0o644); err != nil {
		t.Fatal(err)
	}
	samples, err := LoadSamples(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []Sample{{"BENCH_a.x": 1, "BENCH_b.y": 2, "BENCH_b.pass": 0}}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("samples = %v, want %v", samples, want)
	}
}
