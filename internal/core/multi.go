package core

import (
	"fmt"

	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/stats"
)

// Multi-branch spying (§6.3: "Knowing the states of PHT entries
// associated with different memory addresses potentially allows the
// attacker to spy on multiple branch instructions in [the] victim process
// in a single episode of execution.")
//
// A MultiSession monitors several victim branch addresses with one
// randomization block: the pre-attack search characterizes the block's
// effect on every target entry at once and accepts any *stable, strong or
// weak* state per target — each state has its own probe direction and
// decode dictionary (below), so requiring all targets to land in SN
// (exponentially unlikely) is unnecessary. One episode then primes all
// entries, lets the victim execute one branch per target, and probes each
// entry.

// probeDirFor returns the probe direction that makes a primed state's
// dictionary unambiguous: not-taken-side states are probed with taken
// branches and vice versa.
func probeDirFor(s StateClass) bool {
	return s == StateSN || s == StateWN
}

// DecodeBitFrom translates a probe observation into the victim's branch
// direction given the primed state and the probe direction chosen by
// probeDirFor. The dictionaries follow from the FSM exactly like Table 1:
//
//	primed SN, probe TT: victim taken -> MH, not-taken -> MM
//	primed WN, probe TT: victim taken -> HH, not-taken -> MM
//	primed WT, probe NN: victim taken -> MM, not-taken -> HH
//	primed ST, probe NN: victim taken -> MM, not-taken -> MH
//	                     (textbook FSMs only: on the Skylake FSM the
//	                     not-taken row also reads MM — Table 1 footnote —
//	                     so ST-primed targets must be rejected there)
//
// Rare off-dictionary patterns are resolved toward the side with more
// evidence, mirroring Figure 6's extended dictionary.
func DecodeBitFrom(primed StateClass, p Pattern) bool {
	switch primed {
	case StateSN:
		return p == PatternMH || p == PatternHH
	case StateWN:
		return p == PatternHH || p == PatternHM
	case StateWT:
		return p == PatternMM || p == PatternMH
	case StateST:
		return p == PatternMM || p == PatternHM
	}
	// Dirty/unknown primes carry no dictionary; guess not-taken.
	return false
}

// MultiTarget is one monitored branch address with its per-block decode
// context.
type MultiTarget struct {
	// Addr is the victim branch address.
	Addr uint64
	// Primed is the stable state the selected block leaves Addr's entry
	// in.
	Primed StateClass
	// ProbeTaken is the probe direction used for this target.
	ProbeTaken bool
}

// MultiConfig parameterizes a multi-target session.
type MultiConfig struct {
	// Targets are the victim branch addresses, in the order the victim
	// executes them within one episode.
	Targets []uint64
	// SpyBase, BlockBranches, Reps, Stability as in SearchConfig;
	// BlockBranches defaults to scale with the target count.
	SpyBase       uint64
	BlockBranches int
	Reps          int
	Stability     float64
	// MaxCandidates bounds the block search (the joint stability
	// requirement makes usable blocks rarer than single-target ones).
	MaxCandidates int
	// AllowST admits targets primed to ST. Safe on textbook-FSM parts;
	// must be false on Skylake, where the ST dictionary is ambiguous
	// (Table 1 footnote).
	AllowST bool
}

func (c MultiConfig) withDefaults() MultiConfig {
	if c.SpyBase == 0 {
		c.SpyBase = 0x6400_0000
	}
	if c.BlockBranches == 0 {
		c.BlockBranches = 64 + 16*len(c.Targets)
	}
	if c.Reps == 0 {
		c.Reps = 60
	}
	if c.Stability == 0 {
		c.Stability = 0.85
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 4000
	}
	return c
}

// MultiSession is a ready multi-target attack instance.
type MultiSession struct {
	spy     *cpu.Context
	cfg     MultiConfig
	block   *Block
	targets []MultiTarget
}

// generateMultiBlock builds a focused block whose alias branches cover
// every target.
func generateMultiBlock(r *rng.Source, cfg MultiConfig) *Block {
	b := GenerateBlock(r, cfg.SpyBase, cfg.BlockBranches)
	// Rebuild with aliases: interleave per-target alias branches into
	// the scramble stream. (Construct a fresh block: one third aliases
	// round-robin over targets, the rest Listing 1 layout.)
	return mixAliases(r, b, cfg.Targets)
}

// mixAliases interleaves alias branches for each target into a block.
// Alias directions are biased toward not-taken: every decoded state is
// usable on textbook parts, but on the Skylake FSM the extra taken-side
// state folds the upper states into an ambiguous "ST" decode (Table 1
// footnote), so skewing the per-target walk toward the not-taken side
// raises the yield of jointly usable blocks considerably.
func mixAliases(r *rng.Source, base *Block, targets []uint64) *Block {
	out := &Block{Base: base.Base, Label: "multi-focused", end: base.end}
	ti := 0
	for _, s := range base.sites {
		if !s.nop && r.Intn(3) == 0 {
			t := targets[ti%len(targets)]
			ti++
			k := uint64(1 + r.Intn(63))
			out.sites = append(out.sites, site{addr: t + k<<30, taken: r.Chance(0.38)})
			out.branches++
			continue
		}
		out.sites = append(out.sites, s)
		if !s.nop {
			out.branches++
		}
	}
	return out
}

// analyzeMulti characterizes a block against every target at once: each
// analysis repetition runs the block once and probes all targets, so the
// per-candidate cost grows only marginally with the target count. The
// repetitions go through cpu.Context.Repeat, which stops simulating
// once they repeat.
func analyzeMulti(spy *cpu.Context, block *Block, cfg MultiConfig) ([]MultiTarget, bool) {
	n := len(cfg.Targets)
	probes := make([]cpu.ResolvedBranch, n)
	for i, addr := range cfg.Targets {
		probes[i] = spy.ResolveBranch(addr)
	}
	// pats[0] holds the taken-probe observations per target, pats[1]
	// the not-taken ones, each with room for every repetition.
	var pats [2][][]Pattern
	buf := make([]Pattern, 2*n*cfg.Reps)
	for d := range pats {
		pats[d] = make([][]Pattern, n)
		for i := range pats[d] {
			pats[d][i], buf = buf[:0:cfg.Reps], buf[cfg.Reps:]
		}
	}
	for d, taken := range []bool{true, false} {
		obs := pats[d]
		spy.Repeat(cfg.Reps, func() {
			block.Run(spy)
			for i := range probes {
				obs[i] = append(obs[i], probePattern(spy, &probes[i], taken))
			}
		})
		for i := range obs {
			obs[i] = fillRepeated(obs[i], cfg.Reps)
		}
	}
	targets := make([]MultiTarget, 0, n)
	for i, addr := range cfg.Targets {
		tt, ft := stats.Mode(pats[0][i])
		nn, fn := stats.Mode(pats[1][i])
		if ft < cfg.Stability || fn < cfg.Stability {
			return nil, false
		}
		state := DecodeState(tt, nn)
		usable := state == StateSN || state == StateWN || state == StateWT ||
			(cfg.AllowST && state == StateST)
		if !usable {
			return nil, false
		}
		targets = append(targets, MultiTarget{
			Addr: addr, Primed: state, ProbeTaken: probeDirFor(state),
		})
	}
	return targets, true
}

// selfVerify replays §6.1's within-process mimicry against a candidate
// session: the spy itself plays the victim (prime, execute one branch at
// the target in a known direction, probe) and checks that both directions
// decode correctly, several times. This catches primes whose dictionary
// is blind — e.g. deep strong states on wider-than-2-bit counters, where
// one execution cannot cross the prediction boundary — without the
// attacker needing to know the FSM.
func (m *MultiSession) selfVerify(r *rng.Source, rounds, needed int) bool {
	// Two design points matter here. First, the mimicked victim
	// directions are drawn randomly per round, not grouped: a block
	// whose final state depends on the *previous* episode's direction
	// (the randomization walk not fully re-converging) looks perfect
	// under same-direction runs and half-blind under real traffic.
	// Second, a decode slip or two is ambient noise, not a blind
	// dictionary; demanding perfection would reject a large share of
	// good blocks once many targets multiply the check count.
	for _, t := range m.targets {
		correct := [2]int{}
		seen := [2]int{}
		for round := 0; round < 2*rounds; round++ {
			dir := r.Bool()
			m.Prime()
			m.spy.Branch(t.Addr, dir) // the spy mimics the victim
			pat := ProbePMC(m.spy, t.Addr, t.ProbeTaken)
			idx := 0
			if dir {
				idx = 1
			}
			seen[idx]++
			if DecodeBitFrom(t.Primed, pat) == dir {
				correct[idx]++
			}
		}
		for idx := 0; idx < 2; idx++ {
			// Scale the requirement to the rounds actually drawn for
			// this direction.
			if seen[idx] == 0 || correct[idx]*rounds < needed*seen[idx] {
				return false
			}
		}
	}
	return true
}

// NewMultiSession searches for a block that leaves every target entry in
// a stable, decodable state — and whose decode dictionaries pass the
// §6.1-style self-verification — and returns the ready session.
func NewMultiSession(spy *cpu.Context, r *rng.Source, cfg MultiConfig) (*MultiSession, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("core: MultiConfig.Targets empty")
	}
	for cand := 0; cand < cfg.MaxCandidates; cand++ {
		block := generateMultiBlock(r, cfg)
		targets, ok := analyzeMulti(spy, block, cfg)
		if !ok {
			continue
		}
		ms := &MultiSession{spy: spy, cfg: cfg, block: block, targets: targets}
		// Cheap filter, then a rigorous confirmation of the survivor.
		if ms.selfVerify(r, 6, 5) && ms.selfVerify(r, 30, 27) {
			return ms, nil
		}
	}
	return nil, fmt.Errorf("core: no block stabilizes all %d targets in %d candidates",
		len(cfg.Targets), cfg.MaxCandidates)
}

// Targets returns the per-target decode contexts.
func (m *MultiSession) Targets() []MultiTarget { return m.targets }

// Prime executes stage 1 for all targets at once.
func (m *MultiSession) Prime() { m.block.Run(m.spy) }

// ProbeAll probes every target entry and decodes the victim's branch
// directions, in target order.
func (m *MultiSession) ProbeAll() []bool {
	out := make([]bool, len(m.targets))
	for i, t := range m.targets {
		pat := ProbePMC(m.spy, t.Addr, t.ProbeTaken)
		out[i] = DecodeBitFrom(t.Primed, pat)
	}
	return out
}

// SpyBits performs one multi-target episode: prime all entries, let the
// victim execute one branch per target (len(Targets) branches), probe and
// decode all of them. This is the single-episode multi-branch spying of
// §6.3 — one randomization-block execution leaks len(Targets) bits.
func (m *MultiSession) SpyBits(victim Stepper) []bool {
	m.Prime()
	victim.StepBranches(len(m.targets))
	return m.ProbeAll()
}
