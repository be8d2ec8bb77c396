package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"branchscope"
)

func TestRoundIsBalancedAndSeeded(t *testing.T) {
	a := planRound(branchscope.NewRand(7))
	count := map[int]int{}
	timing := map[int]int{}
	for _, m := range a {
		count[m.cell]++
		if m.timing {
			timing[m.cell]++
		}
		if len(m.secret) != messageBits {
			t.Fatalf("message of %d bits, want %d", len(m.secret), messageBits)
		}
	}
	for cell := range covertCells {
		if count[cell] != 4 || timing[cell] != 1 {
			t.Errorf("cell %d: %d messages, %d probing with rdtscp; want 4 and 1", cell, count[cell], timing[cell])
		}
	}
	if b := planRound(branchscope.NewRand(7)); !reflect.DeepEqual(a, b) {
		t.Error("the same seed planned different rounds")
	}
	if c := planRound(branchscope.NewRand(8)); reflect.DeepEqual(a, c) {
		t.Error("different seeds planned the same round")
	}
}

func TestSpecMixRepeatsEarlierSpecs(t *testing.T) {
	src := &specSource{tenant: "alice", r: branchscope.NewRand(3)}
	seen := map[string]bool{}
	var small, large, repeats int
	for i := 0; i < 10*specBlock; i++ {
		sp, repeat := src.next()
		key, _ := json.Marshal(sp)
		switch {
		case repeat:
			repeats++
			if !seen[string(key)] {
				t.Errorf("spec %d repeats a spec never sent: %s", i, key)
			}
		case slices.Equal(sp.Tasks, largeJob):
			large++
		default:
			small++
		}
		seen[string(key)] = true
	}
	// The first draw of a repeat slot, before any spec exists, falls back
	// to a new small job.
	if repeats < 49 || repeats > 50 || large != 20 || small+repeats != 180 {
		t.Errorf("mix: %d small, %d large, %d repeats over 10 blocks", small, large, repeats)
	}
}

// TestExportDigestKeyedBySources checks that the stored suite export
// digest is compared only between runs of identical sources: another
// version stores its own, and only a differing export of the same
// sources is a failed check.
func TestExportDigestKeyedBySources(t *testing.T) {
	state := t.TempDir()
	parent := &config{state: state, source: "aaaa"}
	change := &config{state: state, source: "bbbb"}
	o := newOutcome()
	checkExportDigest(o, parent, 1, "export-a")
	checkExportDigest(o, change, 1, "export-b")
	checkExportDigest(o, parent, 1, "export-a")
	checkExportDigest(o, change, 1, "export-b")
	checkExportDigest(o, parent, 2, "export-c")
	if len(o.problems) != 0 {
		t.Fatalf("runs of two versions flagged each other: %v", o.problems)
	}
	checkExportDigest(o, change, 1, "export-d")
	if len(o.problems) != 1 || !strings.Contains(o.problems[0], "export-d") {
		t.Errorf("a changed export of the same sources gave problems %v, want one naming it", o.problems)
	}
}

// TestBenchmarkJSONMatchesReportedMetrics keeps BENCHMARK.json and the
// code in step: the per-layer list is exactly what a traced run
// reports, and every workload reports every end-to-end metric.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var layer []string
	for _, m := range bench.PerLayer {
		layer = append(layer, m.Name)
	}
	want := traceMetricNames()
	sort.Strings(layer)
	sort.Strings(want)
	if !slices.Equal(layer, want) {
		t.Errorf("BENCHMARK.json per_layer %v\ntraced run reports %v", layer, want)
	}
	var e2e []string
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	sort.Strings(e2e)
	if !slices.Equal(e2e, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, workloads report %v", e2e, endToEndNames)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, []string{"covert", "suite"}) {
		t.Errorf("workloads %v", names)
	}
}
