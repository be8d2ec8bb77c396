// The reproduction scorecard judges exports, not runs: these tests score
// committed exports and simulate nothing, so they also run under -short
// and -race. TestQuickSuiteDeterministicAcrossParallelism pins the live
// quick suite to testdata/suite_quick.golden.json, which ties the first
// scorecard below to the live run.
package branchscope_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"branchscope/internal/experiments"
)

// readExport decodes a committed export.
func readExport(t *testing.T, path string) experiments.Export {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	x, err := experiments.ReadExport(f)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// claimCheck returns the scorecard's check of the one claim whose text
// contains text.
func claimCheck(t *testing.T, sc experiments.Scorecard, text string) experiments.Check {
	t.Helper()
	var found []experiments.Check
	for _, c := range sc.Checks {
		if strings.Contains(c.Claim, text) {
			found = append(found, c)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d claims contain %q", len(found), text)
	}
	return found[0]
}

// TestScorecardCommittedExports scores the quick seed-1 golden and the
// seed-2 block-search golden.
func TestScorecardCommittedExports(t *testing.T) {
	for _, tc := range []struct {
		path            string
		pass, notScored int
	}{
		// Every claim but Fig 4's strong-vs-weak, which the quick run's
		// 50 blocks are too few to score.
		{filepath.Join("testdata", "suite_quick.golden.json"), 16, 1},
		// Table 1, the three Table 2 claims and ASLR.
		{filepath.Join("testdata", "settle_seed2", "export.golden.json"), 5, 12},
	} {
		sc := experiments.Score(readExport(t, tc.path))
		counts := map[experiments.Status]int{}
		for _, c := range sc.Checks {
			counts[c.Status]++
		}
		if counts[experiments.Pass] != tc.pass || counts[experiments.NotScored] != tc.notScored || sc.Failed() != 0 {
			t.Errorf("%s: want %d passing and %d not scored, got:\n%s", tc.path, tc.pass, tc.notScored, sc)
		}
	}

	sc := experiments.Score(readExport(t, filepath.Join("testdata", "suite_quick.golden.json")))
	if c := claimCheck(t, sc, "strong states dominate"); c.Status != experiments.NotScored || !strings.Contains(c.Detail, "50 blocks") {
		t.Errorf("Fig 4 strong-vs-weak on the quick run: %+v", c)
	}
	// The details quote the export's own values.
	if c := claimCheck(t, sc, "below 1-2%"); c.Detail != "SL 0.38/0.94%, HSW 0.28/0.66%" {
		t.Errorf("Table 2 detail %q", c.Detail)
	}
	if !strings.HasPrefix(sc.String(), "Reproduction scorecard: 16/16 scored paper claims hold (1 not scored)\n") {
		t.Errorf("scorecard header:\n%s", sc)
	}
}

// rowEdit sets one column of the first row of experiment id whose
// columns print as the comma-separated key=value pairs of where.
type rowEdit struct {
	id, where, col string
	value          any
}

func (e rowEdit) apply(t *testing.T, x experiments.Export) {
	t.Helper()
	for _, exp := range x.Experiments {
		if exp.ID != e.id {
			continue
		}
	rows:
		for _, r := range exp.Rows {
			for _, pair := range strings.Split(e.where, ",") {
				k, v, _ := strings.Cut(pair, "=")
				if fmt.Sprint(r[k]) != v {
					continue rows
				}
			}
			r[e.col] = e.value
			return
		}
	}
	t.Fatalf("no %s row %s", e.id, e.where)
}

// TestScorecardClaimsFailPastTheirBounds edits the quick golden's rows
// past each claim's bound: the claim must fail.
func TestScorecardClaimsFailPastTheirBounds(t *testing.T) {
	golden := filepath.Join("testdata", "suite_quick.golden.json")
	for _, tc := range []struct {
		claim string
		edits []rowEdit
	}{
		{"first iteration", []rowEdit{{"fig2", "kind=point,model=Skylake,iteration=1", "mean_misses", 3.4}}},
		{"takes over", []rowEdit{{"fig2", "kind=summary,model=SandyBridge", "learning_horizon", 9.0}}},
		{"all eight", []rowEdit{{"table1", "model=Haswell,prime=NNN,target=T,probe=TT", "observation", "HH"}}},
		{"stable decodable", []rowEdit{{"fig4", "kind=summary", "stable_share", 0.54}}},
		{"strong states dominate", []rowEdit{
			{"fig4", "kind=summary", "blocks", 120.0},
			{"fig4", "kind=state,state=SN", "share", 0.0},
		}},
		{"true PHT size", []rowEdit{{"fig5", "kind=summary", "discovered_size", 2048.0}}},
		{"below 1-2%", []rowEdit{{"table2", "model=Haswell,setting=with noise", "all_ones", 0.07}}},
		{"highest error", []rowEdit{{"table2", "model=Skylake,setting=with noise", "all_zeros", 0.1}}},
		{"noise increases", []rowEdit{{"table2", "model=SandyBridge,setting=isolated", "all_zeros", 0.2}}},
		{"latency penalty", []rowEdit{{"fig7", "case=not-taken miss", "mean", 161.0}}},
		{"first executions", []rowEdit{{"fig8", "measurements=11", "error_second", 0.03}}},
		{"distinguishable", []rowEdit{{"fig9", "state=ST,probe_taken=false", "second_mean", 159.9}}},
		{"SGX", []rowEdit{{"table3", "setting=isolated", "random", 0.02}}},
		{"close the channel", []rowEdit{{"mitigations", "mitigation=partitioned", "error_rate", 0.35}}},
		{"Montgomery", []rowEdit{{"montgomery", "model=Skylake", "error_rate", 0.02}}},
		{"ASLR", []rowEdit{{"aslr", "model=Skylake", "pinpointed", false}}},
		{"BTB", []rowEdit{{"btb", "channel=branchscope,btb_flush_defense=true", "error_rate", 0.05}}},
	} {
		x := readExport(t, golden)
		for _, e := range tc.edits {
			e.apply(t, x)
		}
		if c := claimCheck(t, experiments.Score(x), tc.claim); c.Status != experiments.Fail {
			t.Errorf("claim %q holds past its bound: %+v", tc.claim, c)
		}
	}
}

// TestScorecardFailedMissingAndAbsent: a failed experiment fails its
// claims, a missing row fails the claim that reads it, and an
// experiment the run left out leaves its claims not scored.
func TestScorecardFailedMissingAndAbsent(t *testing.T) {
	x := readExport(t, filepath.Join("testdata", "suite_quick.golden.json"))
	kept := x.Experiments[:0]
	for _, e := range x.Experiments {
		switch e.ID {
		case "table2":
			e.Error, e.Rows = "engine: task table2: injected", nil
		case "fig7":
			e.Rows = e.Rows[1:] // drops the not-taken hit row
		case "fig5":
			continue
		}
		kept = append(kept, e)
	}
	x.Experiments = kept
	sc := experiments.Score(x)
	for _, claim := range []string{"below 1-2%", "highest error", "noise increases"} {
		if c := claimCheck(t, sc, claim); c.Status != experiments.Fail || !strings.Contains(c.Detail, "table2 failed: engine: task table2: injected") {
			t.Errorf("claim of a failed experiment: %+v", c)
		}
	}
	if c := claimCheck(t, sc, "latency penalty"); c.Status != experiments.Fail || c.Detail != "fig7 row {taken=false, miss=false} missing" {
		t.Errorf("claim reading a missing row: %+v", c)
	}
	if c := claimCheck(t, sc, "true PHT size"); c.Status != experiments.NotScored || c.Detail != "fig5 did not run" {
		t.Errorf("claim of an absent experiment: %+v", c)
	}
	if sc.Failed() != 4 {
		t.Errorf("failed = %d, want 4:\n%s", sc.Failed(), sc)
	}
}
