// Suite-level guardrails for the execution engine: the quick experiment
// suite must render byte-identical output at any parallelism level, the
// JSON export must match its golden file key for key, and a panicking
// experiment must be reported in place without taking the suite down.
package branchscope_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"branchscope/internal/engine"
	"branchscope/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// runGuardrails enables the timing half of the three guardrails
// (TestHotpathGuardrail, TestParallelSpeedupGuardrail,
// TestTelemetryOverheadGuardrail), which measure wall time and rewrite
// the tracked BENCH_*.json, and the link audit of
// TestEveryFunctionIsLinked, which builds every program. A plain
// `go test ./...` leaves both out; CI's bench and audit steps pass the
// flag:
//
//	go test -run TestHotpathGuardrail -v . -guardrails
//	go test -run '^TestEveryFunctionIsLinked$' -v . -guardrails
var runGuardrails = flag.Bool("guardrails", false, "run the timing guardrails (rewriting BENCH_*.json) and the link audit")

// timeGuardrail reports whether a guardrail should measure and write
// its BENCH_*.json: only with -guardrails, and never in -short mode or
// under the race detector, where timings mean nothing (the test skips
// there). Without the flag a guardrail checks only the preconditions of
// its measurement, which take no time to speak of, and returns.
func timeGuardrail(t *testing.T) bool {
	t.Helper()
	switch {
	case !*runGuardrails:
		t.Log("timing left out: pass -guardrails to measure and rewrite BENCH_*.json")
		return false
	case testing.Short():
		t.Skip("benchmark guardrail skipped in -short mode")
	case raceEnabled:
		t.Skip("benchmark guardrail skipped under the race detector")
	}
	return true
}

// fastIDs is the subset of experiments cheap enough (~10ms each at quick
// scale) to re-run at several parallelism levels in every test run; the
// full-suite comparison below covers the rest outside -short.
var fastIDs = []string{"fig2", "table1", "fig6", "fig7", "fig9", "montgomery", "slidingwindow"}

func tasksByID(t *testing.T, ids []string) []engine.Task {
	t.Helper()
	var exps []experiments.Experiment
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	return experiments.Tasks(exps)
}

// renderSuite runs tasks at the given worker count and returns the
// deterministic text rendering plus the reports.
func renderSuite(tasks []engine.Task, workers int, seed uint64) (string, []engine.Report) {
	r := &engine.Runner{Pool: engine.NewPool(workers)}
	reports := r.RunSuite(context.Background(), tasks, engine.Config{Quick: true, Seed: seed})
	var buf bytes.Buffer
	engine.FormatText(&buf, reports)
	return buf.String(), reports
}

// TestSuiteDeterminismFastSubset is the always-on (and race-detector)
// guardrail: a subset of the suite, sequential vs 8 workers, must render
// byte-identically.
func TestSuiteDeterminismFastSubset(t *testing.T) {
	tasks := tasksByID(t, fastIDs)
	seq, seqReports := renderSuite(tasks, 1, 1)
	par, _ := renderSuite(tasks, 8, 1)
	if seq != par {
		t.Errorf("suite output differs between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if engine.Failed(seqReports) != 0 {
		t.Errorf("%d experiments failed", engine.Failed(seqReports))
	}
}

// TestQuickSuiteDeterministicAcrossParallelism runs the FULL quick suite
// twice — the acceptance criterion behind `cmd/experiments -quick` — and
// pins the sequential run's -json export (wall time zeroed) to
// testdata/suite_quick.golden.json. Regenerate with
// `go test -run QuickSuiteDeterministic -update .` only after an
// intentional change to simulated results.
func TestQuickSuiteDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite takes ~25s per parallelism level")
	}
	if raceEnabled {
		t.Skip("full quick suite is too slow under the race detector; the fast subset covers the race check")
	}
	tasks := experiments.Tasks(experiments.All())
	seq, seqReports := renderSuite(tasks, 1, 1)
	par, _ := renderSuite(tasks, 8, 1)
	if seq != par {
		t.Error("full quick suite output differs between -parallel 1 and -parallel 8")
	}
	if n := engine.Failed(seqReports); n != 0 {
		t.Errorf("%d experiments failed:\n%s", n, seq)
	}
	checkGolden(t, filepath.Join("testdata", "suite_quick.golden.json"), goldenExport(t, seqReports))
}

// TestSuitePanickingExperimentIsolated injects a deliberately panicking
// test-only experiment into a real suite run: it must be reported as that
// experiment's error while every other experiment completes normally.
func TestSuitePanickingExperimentIsolated(t *testing.T) {
	tasks := tasksByID(t, []string{"table1", "fig6"})
	tasks = append(tasks, engine.Task{
		ID: "testpanic", Artifact: "test-only", Description: "always panics",
		Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			panic("injected suite panic")
		},
	})
	tasks = append(tasks, tasksByID(t, []string{"fig7"})...)

	r := &engine.Runner{Pool: engine.NewPool(4)}
	reports := r.RunSuite(context.Background(), tasks, engine.Config{Quick: true, Seed: 1})
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, rep := range reports {
		if rep.Task.ID == "testpanic" {
			if rep.Err == nil || rep.Outcome != "panic" {
				t.Errorf("panic not reported as the task's error: %+v", rep)
			}
			continue
		}
		if rep.Err != nil {
			t.Errorf("%s failed alongside the panicking task: %v", rep.Task.ID, rep.Err)
		}
	}
	var buf bytes.Buffer
	engine.FormatText(&buf, reports)
	if !bytes.Contains(buf.Bytes(), []byte("!!! testpanic failed:")) {
		t.Error("rendered suite output does not surface the panic")
	}
}

// TestSuiteJSONGoldenExport pins the -json export byte for byte
// (schema, key order, row shapes) on a small suite at seed 1. Regenerate
// with `go test -run SuiteJSONGolden -update .` after intentional
// changes to experiment rows or the export schema.
func TestSuiteJSONGoldenExport(t *testing.T) {
	tasks := tasksByID(t, []string{"table1", "fig6"})
	r := &engine.Runner{}
	reports := r.RunSuite(context.Background(), tasks, engine.Config{Quick: true, Seed: 1})
	checkGolden(t, filepath.Join("testdata", "suite_export.golden.json"), goldenExport(t, reports))
}

// simGoldenIDs covers every simulator draw the per-branch step makes:
// fig7 and fig9 consume the TSC jitter and icache draws, and
// mitigations runs every §10.2 predictor variant, including the
// stochastic-FSM slow path.
var simGoldenIDs = []string{"fig2", "table1", "fig6", "fig7", "fig9", "montgomery", "slidingwindow", "mitigations"}

// TestSuiteSimulatorGoldenExport pins the simulator's output bytes: the
// quick -json export of simGoldenIDs at seed 1, wall time zeroed. A
// change to the predictor step, the timing draws or their order shows
// up here. Regenerate with `go test -run SuiteSimulatorGolden -update .`
// only after an intentional change to simulated results.
func TestSuiteSimulatorGoldenExport(t *testing.T) {
	tasks := tasksByID(t, simGoldenIDs)
	r := &engine.Runner{}
	reports := r.RunSuite(context.Background(), tasks, engine.Config{Quick: true, Seed: 1})
	checkGolden(t, filepath.Join("testdata", "suite_sim.golden.json"), goldenExport(t, reports))
}

// goldenExport renders a seed-1 quick suite's -json export with wall
// time, the one nondeterministic export field, zeroed.
func goldenExport(t *testing.T, reports []engine.Report) []byte {
	t.Helper()
	for i := range reports {
		reports[i].Wall = 0
	}
	var buf bytes.Buffer
	if err := engine.WriteJSON(&buf, engine.ExportMeta{BaseSeed: 1, Quick: true}, reports); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGolden compares got against the golden file, rewriting it first
// under -update. A mismatch reports the first differing line.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("JSON export drifted from %s at line %d (run with -update if intentional):\ngot:  %s\nwant: %s",
				golden, i+1, g, w)
			return
		}
	}
}
