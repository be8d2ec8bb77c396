package core

import (
	"fmt"
	"slices"

	"branchscope/internal/cpu"
	"branchscope/internal/rng"
)

// A site is one instruction of a randomization block: a conditional
// branch with a fixed direction, or a NOP (nop sites have taken == false
// and nop == true).
type site struct {
	addr  uint64
	taken bool
	nop   bool
}

// Block is a randomization code block (§5.2, Listing 1): a fixed sequence
// of branch instructions with pseudo-randomly chosen directions and
// NOP-randomized placement. The outcome pattern and layout are chosen
// once at generation time and never change across executions — the
// paper's key trick for being able to *search* for a block that leaves
// the target PHT entry in a desired state (§6.2).
type Block struct {
	// Base is the virtual address where the block starts.
	Base uint64
	// Label distinguishes generator flavours in diagnostics.
	Label string

	sites    []site
	branches int
	end      uint64 // one past the last contiguous code byte

	// plan is the block compiled for planCtx: site index resolution is
	// hoisted out of the per-execution path, so the thousands of Run
	// calls an attack session makes pay only predictor steps. Compiled
	// lazily because blocks are generated (and mostly discarded) by the
	// pre-attack search before a context commits to one.
	plan    *cpu.ExecPlan
	planCtx *cpu.Context
}

// Len returns the number of branch instructions in the block.
func (b *Block) Len() int { return b.branches }

// Span returns the number of contiguous code bytes the block occupies at
// Base (alias branches of focused blocks live outside this span).
func (b *Block) Span() uint64 {
	if b.end < b.Base {
		return 0
	}
	return b.end - b.Base
}

// Run executes the block on a context. Every execution replays the
// identical instruction sequence — the block is static code. The block
// caches a compiled ExecPlan per context, so repeated runs skip index
// resolution entirely; plan execution is observationally identical to
// the serial instruction walk (see cpu.ExecPlan).
func (b *Block) Run(ctx *cpu.Context) {
	if b.planCtx != ctx {
		b.plan, b.planCtx = ctx.NewPlan(len(b.sites)), ctx
		b.compile()
	}
	b.plan.Run()
}

// compile appends the block's sites to its plan.
func (b *Block) compile() {
	for _, s := range b.sites {
		if s.nop {
			b.plan.Nop(s.addr)
			continue
		}
		b.plan.Branch(s.addr, s.taken)
	}
}

// recompile rebuilds the block's plan, if it has one, after its sites
// changed. The plan keeps its context and its buffer.
func (b *Block) recompile() {
	if b.plan != nil {
		b.plan.Reset()
		b.compile()
	}
}

// clone returns a copy of the block's code, with no compiled plan.
func (b *Block) clone() *Block {
	return &Block{Base: b.Base, Label: b.Label, sites: slices.Clone(b.sites), branches: b.branches, end: b.end}
}

// String implements fmt.Stringer.
func (b *Block) String() string {
	return fmt.Sprintf("block %s: %d branches, %d bytes at %#x", b.Label, b.branches, b.Span(), b.Base)
}

// GenerateBlock produces a Listing 1 style block: nBranches conditional
// branches laid out contiguously from base, with a NOP inserted between
// branches with probability 1/2 (randomizing the addresses of all
// subsequent branches) and each branch's direction drawn uniformly.
// This is the block flavour whose bulk statistics Figure 4 characterizes.
func GenerateBlock(r *rng.Source, base uint64, nBranches int) *Block {
	b := new(Block)
	b.layListing(r, base, nBranches)
	return b
}

// layListing lays b out as GenerateBlock does, reusing its site buffer.
func (b *Block) layListing(r *rng.Source, base uint64, nBranches int) {
	if nBranches <= 0 {
		panic("core: block needs at least one branch")
	}
	b.Base, b.Label, b.sites = base, "listing1", b.sites[:0]
	addr := base
	for i := 0; i < nBranches; i++ {
		b.sites = append(b.sites, site{addr: addr, taken: r.Bool()})
		addr += 2 // je/jne rel8
		if r.Bool() {
			b.sites = append(b.sites, site{addr: addr, nop: true})
			addr++
		}
	}
	b.branches = nBranches
	b.end = addr
}

// GenerateFocusedBlock produces the shortened block flavour the paper
// anticipates in §5.2 ("if we focus only on evicting a particular branch,
// we may be able to come up with a shorter sequence of branches that map
// to the same PHT [entry]"): a mix of
//
//   - alias branches placed at target + k·2^30 — an alias stride the
//     attacker discovers empirically by probing collision distances, the
//     same style of reverse engineering as §6.3. At this stride the alias
//     shares the target's low 16 address bits and its folded PHT index,
//     so it collides with the target in every predictor structure of the
//     modelled parts (PHT entry, selector slot, seen-branch tag, BTB set)
//     without the attacker knowing the actual table sizes;
//   - scramble branches at pseudo-random addresses in the attacker's code
//     region, which churn the global history register and bulk PHT state.
//
// All directions are randomized at generation time. Roughly a third of
// the branches are alias branches. The block both evicts the victim
// branch from the seen-branch tracker (forcing 1-level mode) and walks
// the target PHT entry to a final state that the pre-attack search
// (§6.2) selects for.
func GenerateFocusedBlock(r *rng.Source, base uint64, nBranches int, target uint64) *Block {
	if nBranches <= 0 {
		panic("core: block needs at least one branch")
	}
	b := &Block{Base: base, Label: "focused"}
	addr := base
	for i := 0; i < nBranches; i++ {
		if r.Intn(3) == 0 {
			// Alias branch at the empirically discovered stride.
			k := uint64(1 + r.Intn(63))
			b.sites = append(b.sites, site{addr: target + k<<30, taken: r.Bool()})
		} else {
			b.sites = append(b.sites, site{addr: addr, taken: r.Bool()})
			addr += 2
			if r.Bool() {
				b.sites = append(b.sites, site{addr: addr, nop: true})
				addr++
			}
		}
		b.branches++
	}
	b.end = addr
	return b
}
