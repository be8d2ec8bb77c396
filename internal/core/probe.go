package core

import "branchscope/internal/cpu"

// ProbePMC performs one probe operation (§6.1 stage 3): it executes the
// spy branch at addr twice with the given direction, reading the
// branch-misprediction performance counter around each execution, and
// returns the observed pattern. This is the Listing 3 spy_function.
func ProbePMC(ctx *cpu.Context, addr uint64, taken bool) Pattern {
	rb := ctx.ResolveBranch(addr)
	return probePattern(ctx, &rb, taken)
}

// probePattern is ProbePMC over a pre-resolved spy branch.
func probePattern(ctx *cpu.Context, rb *cpu.ResolvedBranch, taken bool) Pattern {
	m0, m1, m2 := ProbePMCReadingsResolved(ctx, rb, taken)
	return MakePattern(m1 > m0, m2 > m1)
}

// ProbePMCReadingsResolved performs the same probe over a pre-resolved
// spy branch and returns the three raw counter readings: the session's
// health gate inspects them for implausible values before the pattern
// is decoded (see DegradeConfig). Attack sessions probe the same target
// address millions of times, so they resolve its predictor indexes once
// at construction and pay only the two branch executions per probe.
func ProbePMCReadingsResolved(ctx *cpu.Context, rb *cpu.ResolvedBranch, taken bool) (m0, m1, m2 uint64) {
	m0 = ctx.ReadPMC(cpu.BranchMisses)
	rb.Execute(taken)
	m1 = ctx.ReadPMC(cpu.BranchMisses)
	rb.Execute(taken)
	m2 = ctx.ReadPMC(cpu.BranchMisses)
	return m0, m1, m2
}

// TSCSample is the raw material of a timing probe: the rdtscp-measured
// latency of each of the two probe branch executions (§8).
type TSCSample struct {
	First  uint64
	Second uint64
}

// ProbeTSC performs one probe operation measuring each branch execution
// with the timestamp counter instead of the PMC. The caller classifies
// the latencies against a calibrated threshold (see TimingDetector).
func ProbeTSC(ctx *cpu.Context, addr uint64, taken bool) TSCSample {
	rb := ctx.ResolveBranch(addr)
	return ProbeTSCResolved(ctx, &rb, taken)
}

// ProbeTSCResolved is ProbeTSC over a pre-resolved spy branch (see
// ProbePMCReadingsResolved).
func ProbeTSCResolved(ctx *cpu.Context, rb *cpu.ResolvedBranch, taken bool) TSCSample {
	t0 := ctx.ReadTSC()
	rb.Execute(taken)
	t1 := ctx.ReadTSC()
	rb.Execute(taken)
	t2 := ctx.ReadTSC()
	return TSCSample{First: t1 - t0, Second: t2 - t1}
}
