package experiments

import (
	"context"
	"fmt"
	"strings"

	"branchscope/internal/cpu"
	"branchscope/internal/engine"
	"branchscope/internal/rng"
	"branchscope/internal/stats"
	"branchscope/internal/uarch"
)

// Fig8Config parameterizes the §8 timing-detection reliability study:
// how often does a correctly predicted branch measure *slower* than a
// mispredicted one (H > M), for the first execution (cold code) and the
// second (warm), as a function of how many measurements are averaged.
type Fig8Config struct {
	// MaxMeasurements is the largest averaging window (the paper scans
	// 1..19).
	MaxMeasurements int
	// Trials is the number of H/M comparisons per point.
	Trials int
	Model  uarch.Model
	Seed   uint64
}

func (c Fig8Config) withDefaults() Fig8Config {
	if c.MaxMeasurements == 0 {
		c.MaxMeasurements = 19
	}
	if c.Trials == 0 {
		c.Trials = 2000
	}
	if c.Model.Name == "" {
		c.Model = uarch.Skylake()
	}
	return c
}

// Fig8Point is one x-position of the figure.
type Fig8Point struct {
	Measurements int
	// ErrorFirst is the error rate using first-execution latencies
	// (cold instruction fetch), ErrorSecond using second executions.
	ErrorFirst  float64
	ErrorSecond float64
}

// Fig8Result holds the two curves.
type Fig8Result struct {
	Config Fig8Config
	Points []Fig8Point
}

// episode measures one hit pair and one miss pair at fresh addresses,
// returning (H1, H2, M1, M2).
func fig8Episode(hw *cpu.Context, addr *uint64) (h1, h2, m1, m2 uint64) {
	// Hit pair: primed to the actual direction, both executions
	// predicted; the first runs from a cold instruction line.
	*addr += 64
	primeVia(hw, *addr, true, 4)
	t0 := hw.ReadTSC()
	hw.Branch(*addr, true)
	t1 := hw.ReadTSC()
	hw.Branch(*addr, true)
	t2 := hw.ReadTSC()
	h1, h2 = t1-t0, t2-t1

	// Miss pair: primed opposite; both executions mispredict (SN needs
	// two taken outcomes before the prediction flips).
	*addr += 64
	primeVia(hw, *addr, false, 4)
	t0 = hw.ReadTSC()
	hw.Branch(*addr, true)
	t1 = hw.ReadTSC()
	hw.Branch(*addr, true)
	t2 = hw.ReadTSC()
	m1, m2 = t1-t0, t2-t1
	return h1, h2, m1, m2
}

// RunFig8 regenerates Figure 8.
func RunFig8(ctx context.Context, cfg Fig8Config) (Fig8Result, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed + 8)
	core := cfg.Model.NewCore(r.Uint64())
	hw := core.NewContext(1)
	res := Fig8Result{Config: cfg}
	addr := uint64(0x5200_0000)
	for m := 1; m <= cfg.MaxMeasurements; m += 2 { // the paper plots odd counts 1,3,...,19
		errFirst, errSecond := 0, 0
		for trial := 0; trial < cfg.Trials; trial++ {
			if trial%512 == 0 {
				if err := ctx.Err(); err != nil {
					return Fig8Result{}, fmt.Errorf("experiments: fig8: %w", err)
				}
			}
			var h1s, h2s, m1s, m2s []uint64
			for k := 0; k < m; k++ {
				h1, h2, m1, m2 := fig8Episode(hw, &addr)
				h1s, h2s = append(h1s, h1), append(h2s, h2)
				m1s, m2s = append(m1s, m1), append(m2s, m2)
			}
			if stats.MeanUint64(h1s) >= stats.MeanUint64(m1s) {
				errFirst++
			}
			if stats.MeanUint64(h2s) >= stats.MeanUint64(m2s) {
				errSecond++
			}
		}
		res.Points = append(res.Points, Fig8Point{
			Measurements: m,
			ErrorFirst:   float64(errFirst) / float64(cfg.Trials),
			ErrorSecond:  float64(errSecond) / float64(cfg.Trials),
		})
	}
	return res, nil
}

// Rows implements engine.Result: one row per averaging-window size.
func (r Fig8Result) Rows() []engine.Row {
	rows := make([]engine.Row, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, engine.Row{
			engine.F("measurements", p.Measurements),
			engine.F("error_first", p.ErrorFirst),
			engine.F("error_second", p.ErrorSecond),
		})
	}
	return rows
}

// String renders the two error curves.
func (r Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: branch event detection error vs number of RDTSCP measurements (%s)\n",
		r.Config.Model.Name)
	fmt.Fprintf(&b, "%-14s %14s %14s\n", "measurements", "1st execution", "2nd execution")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-14d %13.1f%% %13.1f%%\n",
			p.Measurements, 100*p.ErrorFirst, 100*p.ErrorSecond)
	}
	return b.String()
}
