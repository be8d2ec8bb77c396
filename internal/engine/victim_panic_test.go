package engine

import (
	"context"
	"strings"
	"testing"

	"branchscope/internal/cpu"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
)

// TestRunnerIsolatesVictimPanic extends panic isolation to simulated
// victim code: a victim's function does not run on the task's goroutine,
// but the scheduler re-raises its panic on the goroutine that stepped
// it, so the runner reports it in place and the next task still runs.
func TestRunnerIsolatesVictimPanic(t *testing.T) {
	victim := Task{
		ID: "victim", Artifact: "T", Description: "victim panics",
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			sys := sched.NewSystem(uarch.Skylake(), cfg.Seed)
			th := sys.Spawn("victim", func(hw *cpu.Context) {
				hw.Branch(0x100, true)
				panic("deliberate victim panic")
			})
			for th.StepBranches(1) {
			}
			return textResult("victim returned"), nil
		},
	}
	r := &Runner{}
	rep := r.RunTask(context.Background(), victim, Config{Seed: 1})
	if rep.Err == nil || !rep.Panicked {
		t.Fatalf("victim panic not reported: %+v", rep)
	}
	if !strings.Contains(rep.Err.Error(), "deliberate victim panic") {
		t.Errorf("panic message lost: %v", rep.Err)
	}
	if next := r.RunTask(context.Background(), okTask("next"), Config{Seed: 1}); next.Err != nil {
		t.Errorf("task after a victim panic failed: %v", next.Err)
	}
}
