package sgx

import (
	"testing"

	"branchscope/internal/cpu"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
)

func TestEnclaveStepping(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	e := Launch(sys, "trojan", func(ctx *cpu.Context) {
		for i := 0; i < 10; i++ {
			ctx.Work(2)
			ctx.Branch(0x100, i%2 == 0)
		}
	})
	defer e.Destroy()
	if e.thread.Finished() {
		t.Fatal("enclave ran before being stepped")
	}
	if !e.StepBranches(1) {
		t.Fatal("enclave finished after one branch")
	}
	if !e.StepInstructions(5) {
		t.Fatal("enclave finished after five instructions")
	}
}

func TestEnclaveRunToCompletion(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	done := false
	e := Launch(sys, "t", func(ctx *cpu.Context) {
		ctx.Branch(0x10, true)
		done = true
	})
	for e.StepBranches(1) {
	}
	if !done || !e.thread.Finished() {
		t.Error("enclave did not complete")
	}
}

func TestInterruptChargesAEX(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	e := Launch(sys, "t", func(ctx *cpu.Context) {
		for {
			ctx.Branch(0x10, true)
		}
	})
	defer e.Destroy()
	c0 := sys.Core().Clock()
	e.StepBranches(1)
	if delta := sys.Core().Clock() - c0; delta < AEXCycles {
		t.Errorf("interrupt advanced clock by %d, want >= %d (AEX)", delta, AEXCycles)
	}
}

// TestEnclaveSharesBPU verifies the attack surface: enclave branch
// history is visible to a non-enclave process through the shared
// predictor — the §9 premise.
func TestEnclaveSharesBPU(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	e := Launch(sys, "t", func(ctx *cpu.Context) {
		for i := 0; i < 4; i++ {
			ctx.Branch(0x2000, true)
		}
	})
	defer e.Destroy()
	e.StepBranches(4)
	spy := sys.NewProcess("spy")
	before := spy.ReadPMC(cpu.BranchMisses)
	spy.Branch(0x2000, true)
	if spy.ReadPMC(cpu.BranchMisses) != before {
		t.Error("spy mispredicted: enclave BPU state not shared")
	}
}
