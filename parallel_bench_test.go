// Parallel-execution guardrail: measures the quick suite sequentially
// and on a GOMAXPROCS-wide pool and records the speedup in
// BENCH_parallel.json. On 4+ core machines the pool must deliver at
// least a 2x speedup; below that the hardware cannot parallelize enough
// for the bar to be meaningful, so only the measurement is recorded.
package branchscope_test

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"branchscope/internal/engine"
)

func TestParallelSpeedupGuardrail(t *testing.T) {
	// The heavier half of the quick suite — enough work per experiment
	// for scheduling overhead to be invisible. Without -guardrails the
	// test checks only that these experiments still exist.
	tasks := tasksByID(t, []string{
		"table2", "table3", "mitigations", "predictors", "fsmwidth",
		"btb", "fig5", "smt", "timingchannel",
	})
	if !timeGuardrail(t) {
		return
	}
	cores := runtime.GOMAXPROCS(0)
	run := func(workers int) time.Duration {
		start := time.Now()
		r := &engine.Runner{Pool: engine.NewPool(workers)}
		reports := r.RunSuite(context.Background(), tasks, engine.Config{Quick: true, Seed: 1})
		if n := engine.Failed(reports); n != 0 {
			t.Fatalf("%d experiments failed", n)
		}
		return time.Since(start)
	}

	seq := run(1)
	par := run(cores)
	speedup := float64(seq) / float64(par)
	pass := speedup >= 2 || cores < 4

	report := struct {
		Cores          int     `json:"cores"`
		Experiments    int     `json:"experiments"`
		SequentialSecs float64 `json:"sequential_seconds"`
		ParallelSecs   float64 `json:"parallel_seconds"`
		Speedup        float64 `json:"speedup"`
		MinSpeedup     float64 `json:"min_speedup_on_4plus_cores"`
		Pass           bool    `json:"pass"`
	}{
		Cores:          cores,
		Experiments:    len(tasks),
		SequentialSecs: seq.Seconds(),
		ParallelSecs:   par.Seconds(),
		Speedup:        speedup,
		MinSpeedup:     2,
		Pass:           pass,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_parallel.json", append(out, '\n'), 0o644); err != nil {
		t.Fatalf("writing BENCH_parallel.json: %v", err)
	}
	t.Logf("sequential %v, parallel %v on %d core(s): speedup %.2fx", seq, par, cores, speedup)
	if !pass {
		t.Errorf("parallel suite speedup %.2fx on %d cores (want >= 2x on 4+ cores)", speedup, cores)
	}
}
