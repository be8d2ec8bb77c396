package sched

import (
	"testing"

	"branchscope/internal/cpu"
	"branchscope/internal/telemetry"
	"branchscope/internal/uarch"
)

// TestSystemTelemetry checks the scheduler's counters and the per-thread
// quantum spans on two stepped threads, one run to completion and one
// killed while suspended.
func TestSystemTelemetry(t *testing.T) {
	sys := NewSystem(uarch.Skylake(), 1)
	set := telemetry.New(telemetry.NewRegistry(), telemetry.NewTracer())
	sys.SetTelemetry(set)
	if sys.Telemetry() != set {
		t.Fatal("Telemetry() did not return the attached set")
	}

	th := sys.Spawn("worker", func(ctx *cpu.Context) {
		for i := 0; i < 8; i++ {
			ctx.Branch(uint64(0x100+16*i), true)
		}
	})
	sleeper := sys.Spawn("sleeper", func(ctx *cpu.Context) { ctx.Work(100) })
	th.StepBranches(3)
	th.Run()
	sleeper.Step(1)
	sleeper.Kill() // suspended: counts
	th.Kill()      // finished: a no-op that counts nothing

	reg := set.Metrics
	if reg.Counter("sched.spawns").Value() != 2 {
		t.Error("sched.spawns != 2")
	}
	if reg.Counter("sched.processes").Value() != 2 {
		t.Error("sched.processes != 2")
	}
	if got := reg.Counter("sched.steps").Value(); got < 3 {
		t.Errorf("sched.steps = %d, want >= 3", got)
	}
	if got := reg.Counter("sched.kills").Value(); got != 1 {
		t.Errorf("sched.kills = %d, want 1", got)
	}
	if reg.Counter("cpu.branches").Value() != 8 {
		t.Errorf("cpu.branches = %d, want 8", reg.Counter("cpu.branches").Value())
	}

	quanta := map[int]int{}
	var named int
	for _, ev := range set.Trace.Events() {
		switch {
		case ev.Name == "quantum" && ev.Phase == telemetry.PhaseComplete:
			quanta[ev.TID]++
		case ev.Phase == telemetry.PhaseMetadata && ev.Args["name"] == "worker":
			named = ev.TID
		}
	}
	if n := quanta[th.Context().TID()]; n < 2 {
		t.Errorf("trace has %d quantum spans for the worker, want >= 2", n)
	}
	if n := quanta[sleeper.Context().TID()]; n != 1 {
		t.Errorf("trace has %d quantum spans for the sleeper, want 1", n)
	}
	if len(quanta) != 2 {
		t.Errorf("quantum spans on %d tids, want 2: %v", len(quanta), quanta)
	}
	if named != th.Context().TID() {
		t.Errorf("thread_name metadata on tid %d, want %d", named, th.Context().TID())
	}
}

// TestTelemetryDisabledThreads pins the nil fast path: without
// SetTelemetry, contexts get tid 0 and stepping emits nothing.
func TestTelemetryDisabledThreads(t *testing.T) {
	sys := NewSystem(uarch.Skylake(), 1)
	th := sys.Spawn("quiet", func(ctx *cpu.Context) { ctx.Work(10) })
	if th.Context().TID() != 0 {
		t.Error("untracked context has a nonzero tid")
	}
	th.Run()
}
