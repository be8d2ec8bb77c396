package core

import (
	"fmt"

	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/stats"
)

// BlockAnalysis is the statistical characterization of one candidate
// randomization block (§6.2): for each probe variant, the dominant
// observation pattern and how often it dominated, plus the decoded state
// class. This is one point of Figure 4a and one pie slice of Figure 4b.
type BlockAnalysis struct {
	Block *Block
	// PatTT/FreqTT: dominant pattern and its frequency when probing
	// with two taken branches; PatNN/FreqNN likewise for two not-taken.
	PatTT  Pattern
	FreqTT float64
	PatNN  Pattern
	FreqNN float64
	// Stable reports whether both dominant-pattern frequencies reached
	// the stability threshold (the paper uses 85%).
	Stable bool
	// State is the decoded PHT state class (StateUnknown when not
	// Stable).
	State StateClass
}

// SearchConfig parameterizes block generation and evaluation.
type SearchConfig struct {
	// TargetAddr is the virtual address of the victim branch (and of
	// the spy's colliding probe branch).
	TargetAddr uint64
	// SpyBase is the base address of the spy's randomization code
	// region.
	SpyBase uint64
	// BlockBranches is the number of branches per candidate block.
	BlockBranches int
	// Focused selects GenerateFocusedBlock (short, eviction-targeted)
	// over the Listing 1 bulk generator.
	Focused bool
	// Reps is the number of (run block, probe) repetitions per probe
	// variant used to measure pattern stability (the paper uses 1000).
	Reps int
	// Stability is the dominant-pattern frequency required to consider
	// the block stable (the paper uses 0.85).
	Stability float64
	// OnRep, when non-nil, runs between the block execution and the
	// probe of every analysis repetition — the window in which ambient
	// system activity can still disturb the primed entry. The Fig 4
	// harness injects background noise here; the real experiment simply
	// ran on a live machine.
	OnRep func()
}

// withDefaults fills unset fields.
func (c SearchConfig) withDefaults() SearchConfig {
	if c.SpyBase == 0 {
		c.SpyBase = 0x6100_0000
	}
	if c.BlockBranches == 0 {
		if c.Focused {
			c.BlockBranches = 96
		} else {
			c.BlockBranches = 4000
		}
	}
	if c.Reps == 0 {
		c.Reps = 100
	}
	if c.Stability == 0 {
		c.Stability = 0.85
	}
	return c
}

func (c SearchConfig) generate(r *rng.Source) *Block {
	if c.Focused {
		return GenerateFocusedBlock(r, c.SpyBase, c.BlockBranches, c.TargetAddr)
	}
	return GenerateBlock(r, c.SpyBase, c.BlockBranches)
}

// AnalyzeBlock measures the PHT state a block leaves the target entry in,
// using the §6.2 protocol: Reps repetitions of (run block, probe with two
// taken branches), then Reps repetitions of (run block, probe with two
// not-taken branches), decoding the dominant patterns. ctx is the spy's
// context; the probes run at cfg.TargetAddr. Without OnRep the
// repetitions go through cpu.Context.Repeat, which stops simulating
// once they repeat.
func AnalyzeBlock(ctx *cpu.Context, b *Block, cfg SearchConfig) BlockAnalysis {
	cfg = cfg.withDefaults()
	a := BlockAnalysis{Block: b}
	rb := ctx.ResolveBranch(cfg.TargetAddr)
	pats := make([]Pattern, 0, cfg.Reps)

	collect := func(taken bool) (Pattern, float64) {
		pats = pats[:0]
		if cfg.OnRep != nil {
			// OnRep runs other contexts, so the repetitions are not a
			// function of this context's predictor state alone.
			for i := 0; i < cfg.Reps; i++ {
				b.Run(ctx)
				cfg.OnRep()
				pats = append(pats, probePattern(ctx, &rb, taken))
			}
			return stats.Mode(pats)
		}
		ctx.Repeat(cfg.Reps, func() {
			b.Run(ctx)
			pats = append(pats, probePattern(ctx, &rb, taken))
		})
		return stats.Mode(fillRepeated(pats, cfg.Reps))
	}
	a.PatTT, a.FreqTT = collect(true)
	a.PatNN, a.FreqNN = collect(false)
	a.Stable = a.FreqTT >= cfg.Stability && a.FreqNN >= cfg.Stability
	if a.Stable {
		a.State = DecodeState(a.PatTT, a.PatNN)
	} else {
		a.State = StateUnknown
	}
	return a
}

// fillRepeated extends pats to n observations with copies of its last
// one: each repetition cpu.Context.Repeat computed rather than
// simulated repeats the last simulated one exactly.
func fillRepeated(pats []Pattern, n int) []Pattern {
	for len(pats) < n {
		pats = append(pats, pats[len(pats)-1])
	}
	return pats
}

// FindBlock is the pre-attack stage (§6.2): it generates candidate
// randomization blocks and analyzes each until one is found that stably
// leaves the target PHT entry in the desired state, or maxCandidates are
// exhausted. The search is a one-time effort; the returned block is then
// reused for every attack episode.
func FindBlock(ctx *cpu.Context, r *rng.Source, cfg SearchConfig, desired StateClass, maxCandidates int) (*Block, BlockAnalysis, error) {
	cfg = cfg.withDefaults()
	if maxCandidates <= 0 {
		maxCandidates = 200
	}
	tel := ctx.Core().Telemetry()
	var start uint64
	if tel != nil {
		start = ctx.Core().Clock()
	}
	candidates := tel.Counter("core.search.candidates")
	for i := 0; i < maxCandidates; i++ {
		b := cfg.generate(r)
		candidates.Inc()
		a := AnalyzeBlock(ctx, b, cfg)
		if a.Stable && a.State == desired {
			if tel != nil {
				tel.Counter("core.search.found").Inc()
				tel.Span(ctx.TID(), "attack", "block-search", start, ctx.Core().Clock(),
					map[string]any{"candidates": i + 1, "state": desired.String()})
			}
			return b, a, nil
		}
	}
	if tel != nil {
		tel.Counter("core.search.exhausted").Inc()
		tel.Span(ctx.TID(), "attack", "block-search", start, ctx.Core().Clock(),
			map[string]any{"candidates": maxCandidates, "state": "none"})
	}
	return nil, BlockAnalysis{}, fmt.Errorf(
		"core: no stable randomization block reaching state %v in %d candidates (target %#x)",
		desired, maxCandidates, cfg.TargetAddr)
}
