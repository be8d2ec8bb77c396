package experiments

import (
	"context"
	"fmt"
	"strings"

	"branchscope/internal/cpu"
	"branchscope/internal/engine"
	"branchscope/internal/rng"
	"branchscope/internal/uarch"
)

// Fig2Config parameterizes the §5.1 selection-logic experiment: a single
// branch executes an irregular (random) 10-bit outcome pattern, the
// pattern repeats 20 times, and the number of mispredictions per
// iteration is recorded via the PMC. A 1-level predictor cannot beat 50%
// on such a pattern; the 2-level predictor learns it, so the curve
// falling to ~0 traces the hybrid's migration from 1-level to 2-level
// prediction.
type Fig2Config struct {
	// PatternBits is the length of the random outcome pattern (10).
	PatternBits int
	// Iterations is how many times the pattern repeats (20).
	Iterations int
	// Trials is the number of independent runs averaged (fresh pattern
	// and fresh predictor state each).
	Trials int
	// Models defaults to the two CPUs of Figure 2 (i5-6200U Skylake and
	// i7-2600 Sandy Bridge).
	Models []uarch.Model
	Seed   uint64
}

func (c Fig2Config) withDefaults() Fig2Config {
	if c.PatternBits == 0 {
		c.PatternBits = 10
	}
	if c.Iterations == 0 {
		c.Iterations = 20
	}
	if c.Trials == 0 {
		c.Trials = 400
	}
	if c.Models == nil {
		c.Models = []uarch.Model{uarch.Skylake(), uarch.SandyBridge()}
	}
	return c
}

// Fig2Series is one curve of Figure 2.
type Fig2Series struct {
	Model string
	Part  string
	// MeanMisses[i] is the average number of mispredictions during
	// iteration i+1 of the pattern.
	MeanMisses []float64
}

// Fig2Result holds both curves.
type Fig2Result struct {
	Config Fig2Config
	Series []Fig2Series
}

// RunFig2 regenerates Figure 2.
func RunFig2(ctx context.Context, cfg Fig2Config) (Fig2Result, error) {
	cfg = cfg.withDefaults()
	res := Fig2Result{Config: cfg}
	for mi, m := range cfg.Models {
		r := rng.New(cfg.Seed + uint64(mi)*977 + 1)
		sums := make([]float64, cfg.Iterations)
		for trial := 0; trial < cfg.Trials; trial++ {
			if err := ctx.Err(); err != nil {
				return Fig2Result{}, fmt.Errorf("experiments: fig2: %w", err)
			}
			core := m.Clockless().NewCore(r.Uint64())
			hw := core.NewContext(1)
			pattern := r.Bits(cfg.PatternBits)
			const addr = 0x5000_1230
			for iter := 0; iter < cfg.Iterations; iter++ {
				before := hw.ReadPMC(cpu.BranchMisses)
				for _, taken := range pattern {
					hw.Branch(addr, taken)
				}
				sums[iter] += float64(hw.ReadPMC(cpu.BranchMisses) - before)
			}
		}
		s := Fig2Series{Model: m.Name, Part: m.Part, MeanMisses: sums}
		for i := range s.MeanMisses {
			s.MeanMisses[i] /= float64(cfg.Trials)
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// LearningHorizon returns the first iteration (1-based) at which the
// series stays below one misprediction per pattern — the paper's "5–7
// repeats" observation.
func (s Fig2Series) LearningHorizon() int {
	for i, m := range s.MeanMisses {
		if m < 1 {
			return i + 1
		}
	}
	return len(s.MeanMisses) + 1
}

// String renders the two curves as an aligned table plus a sparkline-ish
// bar per iteration.
func (r Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: average mispredictions per iteration of a %d-bit random pattern\n",
		r.Config.PatternBits)
	fmt.Fprintf(&b, "%-5s", "iter")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %12s", s.Part)
	}
	fmt.Fprintln(&b)
	for i := 0; i < r.Config.Iterations; i++ {
		fmt.Fprintf(&b, "%-5d", i+1)
		for _, s := range r.Series {
			fmt.Fprintf(&b, " %12.2f", s.MeanMisses[i])
		}
		fmt.Fprintln(&b)
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%s learns the pattern by iteration %d\n", s.Model, s.LearningHorizon())
	}
	return b.String()
}

// Rows implements engine.Result: one "point" row per (model, iteration)
// and one "summary" row per model with its learning horizon.
func (r Fig2Result) Rows() []engine.Row {
	var rows []engine.Row
	for _, s := range r.Series {
		for i, m := range s.MeanMisses {
			rows = append(rows, engine.Row{
				engine.F("kind", "point"),
				engine.F("model", s.Model),
				engine.F("iteration", i+1),
				engine.F("mean_misses", m),
			})
		}
		rows = append(rows, engine.Row{
			engine.F("kind", "summary"),
			engine.F("model", s.Model),
			engine.F("learning_horizon", s.LearningHorizon()),
		})
	}
	return rows
}
