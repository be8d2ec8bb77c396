package experiments

import (
	"context"
	"fmt"
	"strings"

	"branchscope/internal/core"
	"branchscope/internal/engine"
	"branchscope/internal/noise"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/stats"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// Fig4Config parameterizes the §6.2 randomization-block characterization:
// many freshly generated Listing 1 blocks are each evaluated with
// repeated (run block, probe) episodes for both probe variants; the
// dominant-pattern frequencies give the Figure 4a stability scatter and
// the decoded states give the Figure 4b distribution.
type Fig4Config struct {
	// Blocks is the number of candidate blocks characterized (the paper
	// uses 10 000).
	Blocks int
	// Reps is the number of episodes per probe variant per block (the
	// paper uses 1000).
	Reps int
	// BlockBranches is the size of each Listing 1 block. The default is
	// scaled to the simulated structures the way the paper's 100 000 is
	// scaled to real ones — large enough to usually randomize the
	// relevant state, small enough that some blocks fail interestingly.
	BlockBranches int
	// NoisePerRep is the background activity between episodes,
	// modelling the live machine the paper measured on.
	NoisePerRep int
	Model       uarch.Model
	Seed        uint64
}

func (c Fig4Config) withDefaults() Fig4Config {
	if c.Blocks == 0 {
		c.Blocks = 200
	}
	if c.Reps == 0 {
		c.Reps = 100
	}
	if c.BlockBranches == 0 {
		c.BlockBranches = 6000
	}
	if c.NoisePerRep == 0 {
		c.NoisePerRep = 90
	}
	if c.Model.Name == "" {
		c.Model = Fig4Model()
	}
	return c
}

// Fig4Model returns the scaled substrate used for the block
// characterization: predictor tables shrunk so that the default block
// exercises each PHT entry about as many times as the paper's
// 100 000-branch block exercises each of 16384 real entries (~6 direct
// updates each). Characterizing blocks against the full-size tables is
// possible but needs proportionally larger blocks (and run time); the
// distribution shape is governed by the updates-per-entry ratio.
func Fig4Model() uarch.Model {
	m := uarch.SandyBridge()
	m.Name = "SandyBridge-sim1k"
	m.BPU.PHTSize = 1024
	m.BPU.SelectorSize = 256
	m.BPU.TagEntries = 512
	m.BPU.BTBEntries = 512
	m.BPU.GHRBits = 10
	return m
}

// Fig4Point is one block's stability measurement (one dot of Figure 4a).
type Fig4Point struct {
	FreqTT float64
	FreqNN float64
	State  core.StateClass
}

// Fig4Result aggregates the characterization.
type Fig4Result struct {
	Config Fig4Config
	Points []Fig4Point
	// Distribution is the fraction of blocks decoded to each state
	// class (Figure 4b).
	Distribution map[core.StateClass]float64
	// StableShare is the fraction of blocks with both dominant-pattern
	// frequencies >= 85% (the paper reports 83%).
	StableShare float64
}

// RunFig4 regenerates Figure 4.
func RunFig4(ctx context.Context, cfg Fig4Config) (Fig4Result, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed + 4)
	sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
	spy := sys.NewProcess("spy")
	noiseThread := sys.Spawn("noise", noise.Process(r.Uint64(), noise.DefaultRegion, 1<<22))
	defer noiseThread.Kill()

	search := core.SearchConfig{
		TargetAddr:    victims.SecretBranchAddr,
		BlockBranches: cfg.BlockBranches,
		Reps:          cfg.Reps,
		OnRep:         func() { noiseThread.Step(cfg.NoisePerRep) },
	}
	res := Fig4Result{Config: cfg, Distribution: make(map[core.StateClass]float64)}
	stable := 0
	for i := 0; i < cfg.Blocks; i++ {
		if err := ctx.Err(); err != nil {
			return Fig4Result{}, fmt.Errorf("experiments: fig4: %w", err)
		}
		b := core.GenerateBlock(r, 0x6100_0000, cfg.BlockBranches)
		a := core.AnalyzeBlock(spy, b, search)
		res.Points = append(res.Points, Fig4Point{FreqTT: a.FreqTT, FreqNN: a.FreqNN, State: a.State})
		res.Distribution[a.State]++
		if a.Stable {
			stable++
		}
	}
	for k := range res.Distribution {
		res.Distribution[k] /= float64(cfg.Blocks)
	}
	res.StableShare = float64(stable) / float64(cfg.Blocks)
	return res, nil
}

// Rows implements engine.Result: one "state" row per decoded state
// class plus one "summary" row with the stability statistics.
func (r Fig4Result) Rows() []engine.Row {
	var rows []engine.Row
	for _, s := range core.AllStateClasses() {
		rows = append(rows, engine.Row{
			engine.F("kind", "state"),
			engine.F("state", s.String()),
			engine.F("share", r.Distribution[s]),
		})
	}
	var tt, nn []float64
	for _, p := range r.Points {
		tt = append(tt, p.FreqTT)
		nn = append(nn, p.FreqNN)
	}
	rows = append(rows, engine.Row{
		engine.F("kind", "summary"),
		engine.F("blocks", r.Config.Blocks),
		engine.F("stable_share", r.StableShare),
		engine.F("median_freq_tt", stats.Median(tt)),
		engine.F("median_freq_nn", stats.Median(nn)),
	})
	return rows
}

// String renders the state distribution (Figure 4b) and the stability
// share (the 4a cut-off statistic).
func (r Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: distribution of PHT states after randomization (%d blocks, %d reps)\n",
		r.Config.Blocks, r.Config.Reps)
	for _, s := range core.AllStateClasses() {
		fmt.Fprintf(&b, "  %-8s %6.1f%%\n", s, 100*r.Distribution[s])
	}
	fmt.Fprintf(&b, "stable blocks (both probe variants >= 85%% dominant): %.1f%% (paper: 83%%)\n",
		100*r.StableShare)
	// Figure 4a in one line: where the dominance scatter sits.
	var tt, nn []float64
	for _, p := range r.Points {
		tt = append(tt, p.FreqTT)
		nn = append(nn, p.FreqNN)
	}
	fmt.Fprintf(&b, "dominant-pattern share: TT median %.0f%%, NN median %.0f%% (Figure 4a scatter)\n",
		100*stats.Median(tt), 100*stats.Median(nn))
	return b.String()
}
