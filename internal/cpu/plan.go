package cpu

import "branchscope/internal/bpu"

// planOp is one precompiled instruction of an ExecPlan.
type planOp struct {
	site   bpu.Site // resolved indexing state (branches only)
	addr   uint64
	target uint64
	taken  bool
	branch bool
}

// ExecPlan is a batched execution program for one context: a sequence of
// branch and nop instructions whose BPU index resolution is computed at
// compile (append) time and reused across runs. Attack loops that
// re-execute the same instruction block thousands of times — prime
// blocks, probe episodes — compile it once and call Run per iteration,
// paying only the per-branch predictor step, timing draw, and commit.
//
// Run is observationally identical to issuing the same Branch/Nop calls
// serially: the clock, PMCs, predictor state, and randomness draw order
// all evolve exactly as in serial execution (the per-op telemetry
// increments are flushed as per-run batch Adds, which preserves the
// totals every reader observes between runs). Contexts with a retire
// hook installed (scheduler-stepped victims) take a per-op fallback so
// hook delivery points — the chaos preemption surface — are unchanged;
// so does a timed core while Context.Repeat records its timing tape,
// which the per-op functions write.
//
// Plans hold resolved bpu.Site values, which revalidate against the
// unit's index-layout epoch inside bpu.Unit.Exec, so a plan compiled
// before MarkSensitive stays correct. A plan is tied to the context
// that created it and, like the context itself, is not safe for
// concurrent use. The steady-state Run path performs no heap
// allocations.
type ExecPlan struct {
	x   *Context
	ops []planOp
}

// NewPlan creates an empty plan for this context with room for capacity
// ops before the backing array grows.
func (x *Context) NewPlan(capacity int) *ExecPlan {
	return &ExecPlan{x: x, ops: make([]planOp, 0, capacity)}
}

// Len returns the number of compiled ops.
func (p *ExecPlan) Len() int { return len(p.ops) }

// Reset empties the plan and keeps its context and its buffer, so a new
// op sequence can be compiled into it.
func (p *ExecPlan) Reset() { p.ops = p.ops[:0] }

// Branch appends a conditional branch at addr with the default
// fall-through target convention of Context.Branch (addr+16).
func (p *ExecPlan) Branch(addr uint64, taken bool) {
	p.BranchTo(addr, taken, addr+16)
}

// BranchTo appends a conditional branch with an explicit taken-target.
func (p *ExecPlan) BranchTo(addr uint64, taken bool, target uint64) {
	p.ops = append(p.ops, planOp{
		site:   p.x.core.bpuUnit.Resolve(p.x.domain, addr),
		addr:   addr,
		target: target,
		taken:  taken,
		branch: true,
	})
}

// Nop appends a non-branch instruction at addr.
func (p *ExecPlan) Nop(addr uint64) {
	p.ops = append(p.ops, planOp{addr: addr})
}

// Run executes the compiled ops in order.
func (p *ExecPlan) Run() {
	x := p.x
	switch {
	case x.hook != nil:
		p.runPerOp()
		return
	case x.core.rnd == nil:
		p.runClockless()
		return
	case x.core.tape != nil:
		p.runPerOp()
		return
	}
	c := x.core
	var instr, branches, misses, allocs, btbMiss, icMiss uint64
	for i := range p.ops {
		op := &p.ops[i]
		extra, miss := c.icacheTouch(x.domain, op.addr)
		if miss {
			icMiss++
		}
		if !op.branch {
			c.clock += c.timing.BaseInstr + extra
			instr++
			continue
		}
		cost := c.timing.BranchBase + extra
		predicted, btbHit, allocated := c.bpuUnit.Exec(&op.site, op.taken, op.target)
		if predicted != op.taken {
			cost += c.timing.MispredictPenalty
			misses++
		}
		if op.taken && !btbHit {
			cost += c.timing.BTBMissPenalty
			btbMiss++
		}
		if allocated {
			allocs++
		}
		cost += c.jitter()
		c.clock += cost
		instr++
		branches++
	}
	x.pmc[Instructions] += instr
	x.pmc[BranchInstructions] += branches
	x.pmc[BranchMisses] += misses
	x.pmc[BranchAllocations] += allocs
	c.ctr.instructions.Add(instr)
	c.ctr.branches.Add(branches)
	c.ctr.misses.Add(misses)
	c.ctr.allocations.Add(allocs)
	c.ctr.btbMisses.Add(btbMiss)
	c.ctr.icacheMisses.Add(icMiss)
}

// runClockless is Run on a clockless core: the predictor steps and PMC
// counts of the timed loop without the icache model, the timing draws
// and the clock. A clockless core carries no telemetry, so there are no
// counters to flush.
func (p *ExecPlan) runClockless() {
	x := p.x
	u := x.core.bpuUnit
	var branches, misses, allocs uint64
	for i := range p.ops {
		op := &p.ops[i]
		if !op.branch {
			continue
		}
		predicted, _, allocated := u.Exec(&op.site, op.taken, op.target)
		if predicted != op.taken {
			misses++
		}
		if allocated {
			allocs++
		}
		branches++
	}
	x.pmc[Instructions] += uint64(len(p.ops))
	x.pmc[BranchInstructions] += branches
	x.pmc[BranchMisses] += misses
	x.pmc[BranchAllocations] += allocs
}

// runPerOp is the faithful per-op path for contexts with a retire hook
// installed and for a core recording a timing tape: every op goes
// through the exact serial execution functions, so hooks fire (and may
// block) at the same delivery points as unbatched execution, and the
// tape records every op's draws.
func (p *ExecPlan) runPerOp() {
	for i := range p.ops {
		op := &p.ops[i]
		if op.branch {
			p.x.branchSite(&op.site, op.taken, op.target)
		} else {
			p.x.Nop(op.addr)
		}
	}
}
