// Benchmarks: one sub-benchmark per registry entry (E1–E24 in DESIGN
// §4), each regenerating the artifact at test scale per iteration, plus
// micro-benchmarks of the substrate's hot paths. They measure the cost
// of reproducing the paper's evaluation on the simulated substrate;
// `go test -bench=. -benchmem` runs them all. Full-scale runs are
// available through cmd/experiments.
package branchscope_test

import (
	"context"
	"testing"

	"branchscope/internal/core"
	"branchscope/internal/engine"
	"branchscope/internal/experiments"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// BenchmarkExperiments runs each registry entry at quick scale, on seed
// i in iteration i (BenchmarkExperiments/<id>).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(context.Background(), engine.Config{Quick: true, Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the substrate's hot paths ---

// BenchmarkBranchExecution measures the cost of one simulated branch.
func BenchmarkBranchExecution(b *testing.B) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	ctx := sys.NewProcess("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Branch(uint64(0x1000+i%4096), i&1 == 0)
	}
}

// BenchmarkAttackEpisode measures one full prime+step+probe episode.
func BenchmarkAttackEpisode(b *testing.B) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	secret := rng.New(1).Bits(64)
	victim := sys.Spawn("victim", victims.LoopingSecretArraySender(secret, 0))
	defer victim.Kill()
	spy := sys.NewProcess("spy")
	sess, err := core.NewSession(spy, rng.New(2), core.AttackConfig{
		Search: core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.SpyBit(victim, nil, nil)
	}
}

// BenchmarkRandomizationBlock measures one Listing 1 block execution.
func BenchmarkRandomizationBlock(b *testing.B) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	ctx := sys.NewProcess("bench")
	block := core.GenerateBlock(rng.New(3), 0x6100_0000, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block.Run(ctx)
	}
}

// BenchmarkPMCProbe measures one two-branch PMC probe.
func BenchmarkPMCProbe(b *testing.B) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	ctx := sys.NewProcess("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ProbePMC(ctx, victims.SecretBranchAddr, true)
	}
}
