package sched

import (
	"fmt"
	"testing"

	"branchscope/internal/bpu"
	"branchscope/internal/cpu"
	"branchscope/internal/noise"
	"branchscope/internal/telemetry"
	"branchscope/internal/uarch"
)

func newSys() *System {
	return NewSystem(uarch.Skylake(), 1)
}

// TestNewProcessDistinctDomains: the per-domain predictor mitigations
// key on a context's domain, so under partitioning a branch one process
// trains stays cold for a second process and for the kernel's reserved
// domain 0.
func TestNewProcessDistinctDomains(t *testing.T) {
	m := uarch.Skylake()
	m.BPU.Mitigation = bpu.MitigationPartitioned
	m.BPU.Domains = 4
	s := NewSystem(m, 1)
	a := s.NewProcess("a")
	b := s.NewProcess("b")
	kernel := s.Core().NewContext(0)
	const addr = 0x4000
	for i := 0; i < 4; i++ {
		a.Branch(addr, true)
	}
	for _, c := range []struct {
		name string
		ctx  *cpu.Context
	}{{"a", a}, {"b", b}, {"kernel", kernel}} {
		before := c.ctx.ReadPMC(cpu.BranchMisses)
		c.ctx.Branch(addr, true)
		if missed := c.ctx.ReadPMC(cpu.BranchMisses) != before; missed != (c.name != "a") {
			t.Errorf("%s: mispredicted=%v after process a trained the branch taken", c.name, missed)
		}
	}
}

func TestSpawnStartsSuspended(t *testing.T) {
	s := newSys()
	ran := false
	th := s.Spawn("v", func(ctx *cpu.Context) {
		ran = true
		ctx.Nop(0x10)
	})
	if ran {
		t.Fatal("thread ran before first Step")
	}
	if th.Finished() {
		t.Fatal("thread finished before running")
	}
	th.Run()
	if !ran || !th.Finished() {
		t.Error("thread did not run to completion")
	}
}

func TestStepExactInstructionCount(t *testing.T) {
	s := newSys()
	th := s.Spawn("v", func(ctx *cpu.Context) {
		for i := 0; i < 100; i++ {
			ctx.Nop(uint64(0x10 + i))
		}
	})
	th.Step(30)
	if got := th.Context().ReadPMC(cpu.Instructions); got != 30 {
		t.Errorf("after Step(30): %d instructions retired", got)
	}
	th.Step(20)
	if got := th.Context().ReadPMC(cpu.Instructions); got != 50 {
		t.Errorf("after Step(20) more: %d instructions retired", got)
	}
	th.Run()
	if got := th.Context().ReadPMC(cpu.Instructions); got != 100 {
		t.Errorf("after Run: %d instructions retired", got)
	}
}

func TestStepBranchesPausesAfterKthBranch(t *testing.T) {
	s := newSys()
	th := s.Spawn("v", func(ctx *cpu.Context) {
		for i := 0; i < 10; i++ {
			ctx.Work(5)
			ctx.Branch(0x100, true)
		}
	})
	th.StepBranches(1)
	if got := th.Context().ReadPMC(cpu.BranchInstructions); got != 1 {
		t.Errorf("after StepBranches(1): %d branches retired", got)
	}
	// Exactly the 5 work instructions + 1 branch must have retired: the
	// thread pauses immediately after the branch, before more work.
	if got := th.Context().ReadPMC(cpu.Instructions); got != 6 {
		t.Errorf("after StepBranches(1): %d instructions retired, want 6", got)
	}
	th.StepBranches(3)
	if got := th.Context().ReadPMC(cpu.BranchInstructions); got != 4 {
		t.Errorf("after StepBranches(3): %d branches retired", got)
	}
}

func TestStepReturnsFalseWhenFinished(t *testing.T) {
	s := newSys()
	th := s.Spawn("v", func(ctx *cpu.Context) {
		ctx.Nop(0x10)
	})
	if !th.Step(1) {
		// One instruction then pause: thread paused inside hook; it
		// has not returned yet, so Step may report alive.
		t.Log("thread reported finished at pause point")
	}
	// Drain to completion.
	th.Run()
	if th.Step(5) {
		t.Error("Step on finished thread reported runnable")
	}
	if th.StepBranches(1) {
		t.Error("StepBranches on finished thread reported runnable")
	}
}

func TestStepZeroReportsLiveness(t *testing.T) {
	s := newSys()
	th := s.Spawn("v", func(ctx *cpu.Context) { ctx.Nop(1) })
	if !th.Step(0) {
		t.Error("Step(0) on live thread = false")
	}
	th.Run()
	if th.Step(0) {
		t.Error("Step(0) on finished thread = true")
	}
}

func TestThreadsShareCoreBPU(t *testing.T) {
	s := newSys()
	victim := s.Spawn("victim", func(ctx *cpu.Context) {
		for i := 0; i < 4; i++ {
			ctx.Branch(0x100, true)
		}
	})
	victim.Run()
	// The attacker process (direct context) now executes a branch at
	// the same address: the shared PHT entry is strongly taken, so no
	// misprediction.
	spy := s.NewProcess("spy")
	before := spy.ReadPMC(cpu.BranchMisses)
	spy.Branch(0x100, true)
	if spy.ReadPMC(cpu.BranchMisses) != before {
		t.Error("spy mispredicted: PHT not shared across processes")
	}
}

func TestNoiseProcessRunsForever(t *testing.T) {
	s := newSys()
	n := s.Spawn("noise", noise.Process(3, noise.DefaultRegion, 1<<16))
	if !n.Step(500) {
		t.Fatal("noise process finished")
	}
	got := n.Context().ReadPMC(cpu.Instructions)
	if got != 500 {
		t.Errorf("noise executed %d instructions, want 500", got)
	}
	if b := n.Context().ReadPMC(cpu.BranchInstructions); b < 300 {
		t.Errorf("noise executed only %d branches out of 500 instructions", b)
	}
}

func TestNoiseBurst(t *testing.T) {
	s := newSys()
	ctx := s.NewProcess("noise")
	b := noise.NewBurst(9, 0x5000, 1<<12)
	b.Run(ctx, 200)
	if got := ctx.ReadPMC(cpu.Instructions); got != 200 {
		t.Errorf("burst executed %d instructions", got)
	}
	// Zero span falls back to a default rather than panicking.
	nb := noise.NewBurst(1, 0, 0)
	nb.Run(ctx, 10)
}

func TestThreadString(t *testing.T) {
	s := newSys()
	th := s.Spawn("x", func(ctx *cpu.Context) { ctx.Nop(1) })
	if th.String() == "" {
		t.Error("empty String")
	}
	th.Run()
	if th.String() == "" {
		t.Error("empty String after finish")
	}
}

func TestSystemAccessors(t *testing.T) {
	s := newSys()
	if s.Core() == nil || s.Telemetry() != nil {
		t.Error("accessor mismatch")
	}
}

func TestKillSuspendedThread(t *testing.T) {
	s := newSys()
	th := s.Spawn("noise", noise.Process(3, noise.DefaultRegion, 1<<16))
	th.Step(100)
	th.Kill()
	if !th.Finished() {
		t.Error("killed thread not finished")
	}
	if th.Step(10) {
		t.Error("killed thread still runnable")
	}
}

func TestKillNeverStartedThread(t *testing.T) {
	s := newSys()
	ran := false
	th := s.Spawn("x", func(ctx *cpu.Context) { ran = true })
	th.Kill()
	if !th.Finished() {
		t.Error("killed thread not finished")
	}
	if ran {
		t.Error("killed-before-start thread ran")
	}
}

func TestKillFinishedThreadNoop(t *testing.T) {
	s := newSys()
	th := s.Spawn("x", func(ctx *cpu.Context) { ctx.Nop(1) })
	th.Run()
	th.Kill() // must not hang or panic
}

func TestKillRunsDeferredCalls(t *testing.T) {
	s := newSys()
	var unwound, cut bool
	th := s.Spawn("v", func(ctx *cpu.Context) {
		defer func() { unwound = true }()
		defer func() {
			// A killed thread retires nothing more: the kill unwinds
			// this deferred call again at its first instruction.
			ctx.Nop(0x20)
			cut = false
		}()
		cut = true
		for {
			ctx.Nop(0x10)
		}
	})
	th.Step(10)
	th.Kill()
	if !unwound {
		t.Error("Kill did not run the victim's deferred calls")
	}
	if !cut {
		t.Error("a deferred call ran past an instruction retired after Kill")
	}
	if !th.Finished() || th.Step(1) {
		t.Error("killed thread still runnable")
	}
}

// TestVictimPanicReachesCaller pins the lifecycle of a thread whose
// function panics, on its first resume or after pausing: the value is
// re-raised on the goroutine that stepped the thread, the thread is
// finished afterwards, and a later Kill returns without counting a kill.
func TestVictimPanicReachesCaller(t *testing.T) {
	for _, before := range []int{0, 5} {
		t.Run(fmt.Sprintf("after%d", before), func(t *testing.T) {
			s := newSys()
			set := telemetry.New(telemetry.NewRegistry(), nil)
			s.SetTelemetry(set)
			th := s.Spawn("v", func(ctx *cpu.Context) {
				ctx.Work(uint64(before))
				panic("victim fault")
			})
			if before > 0 && !th.Step(before) {
				t.Fatal("thread finished before its panic")
			}
			func() {
				defer func() {
					if r := recover(); r != "victim fault" {
						t.Errorf("recovered %v, want the victim's panic value", r)
					}
				}()
				th.Step(1)
				t.Error("Step returned past the victim's panic")
			}()
			if !th.Finished() {
				t.Error("panicked thread not finished")
			}
			if th.Step(1) || th.StepBranches(1) {
				t.Error("panicked thread still runnable")
			}
			th.Kill()
			if got := set.Metrics.Counter("sched.kills").Value(); got != 0 {
				t.Errorf("sched.kills = %d after killing a panicked thread, want 0", got)
			}
		})
	}
}
