package core

import (
	"fmt"

	"branchscope/internal/cpu"
	"branchscope/internal/stats"
)

// TimingDetector classifies a branch execution as predicted or
// mispredicted from its rdtscp-measured latency (§8). It is calibrated by
// the attacker on branches with known prediction outcomes.
type TimingDetector struct {
	// HitMean and MissMean are the calibrated mean latencies.
	HitMean  float64
	MissMean float64
	// Threshold is the decision boundary (midpoint of the means).
	Threshold uint64
}

// Miss classifies one latency sample: true means mispredicted.
func (d *TimingDetector) Miss(latency uint64) bool {
	return latency > d.Threshold
}

// String implements fmt.Stringer.
func (d *TimingDetector) String() string {
	return fmt.Sprintf("timing detector: hit≈%.0f miss≈%.0f threshold=%d cycles",
		d.HitMean, d.MissMean, d.Threshold)
}

// CalibrateTiming builds a TimingDetector by measuring the attacker's own
// branches with known outcomes: a branch trained strongly taken is
// measured while predicted correctly (hits) and immediately after a
// direction flip (misses). scratch is a code address in the attacker's
// own region; reps samples are collected per class. Only warm (second)
// executions are used, mirroring the paper's finding that first
// executions are polluted by caching effects.
func CalibrateTiming(ctx *cpu.Context, scratch uint64, reps int) *TimingDetector {
	if reps <= 0 {
		reps = DefaultTimingCalibrationReps
	}
	tel := ctx.Core().Telemetry()
	var start uint64
	if tel != nil {
		start = ctx.Core().Clock()
	}
	hits := make([]uint64, 0, reps)
	misses := make([]uint64, 0, reps)
	for i := 0; i < reps; i++ {
		// A fresh address per iteration: a fixed calibration loop is
		// perfectly periodic, so the 2-level predictor would learn the
		// planted "mispredictions" and the miss samples would silently
		// turn into hits. A new branch stays on the 1-level predictor.
		addr := scratch + uint64(i)*64
		rb := ctx.ResolveBranch(addr)
		// Train strongly taken (also warms the icache line and BTB).
		for j := 0; j < 4; j++ {
			rb.Execute(true)
		}
		// Hit sample: predicted taken, actually taken.
		t0 := ctx.ReadTSC()
		rb.Execute(true)
		hits = append(hits, ctx.ReadTSC()-t0)
		// Miss sample: still predicted taken, actually not-taken.
		t0 = ctx.ReadTSC()
		rb.Execute(false)
		misses = append(misses, ctx.ReadTSC()-t0)
	}
	d := &TimingDetector{
		HitMean:  stats.MeanUint64(hits),
		MissMean: stats.MeanUint64(misses),
	}
	// The threshold sits between the *medians*: timing noise is heavy
	// tailed (interrupt spikes), so means overestimate the typical
	// sample and would bias the boundary toward misses.
	d.Threshold = uint64((stats.MedianUint64(hits) + stats.MedianUint64(misses)) / 2)
	if tel != nil {
		tel.Gauge("core.timing.hit_mean_cycles").Set(d.HitMean)
		tel.Gauge("core.timing.miss_mean_cycles").Set(d.MissMean)
		tel.Gauge("core.timing.threshold_cycles").Set(float64(d.Threshold))
		tel.Counter("core.timing.calibrations").Inc()
		tel.Span(ctx.TID(), "attack", "timing-calibration", start, ctx.Core().Clock(),
			map[string]any{"reps": reps})
	}
	return d
}
