package experiments

import (
	"context"
	"fmt"

	"branchscope/internal/core"
	"branchscope/internal/engine"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/stats"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// SMT cross-hyperthread channel (§1: "BranchScope can be performed across
// hyperthreaded cores, advancing previously demonstrated BTB-based
// attacks which leaked information only between processes scheduled on
// the same virtual core. This capability relaxes the attacker's process
// scheduling constraints.") — the receiver has no branch-granular control
// over the sibling hardware context; it only lets it run for (jittery)
// instruction-counted time slices and samples the PHT around them. The
// sender self-clocks at a fixed iteration length, each bit repeated
// several times, and the receiver majority-votes its samples per bit
// slot.

// SMTConfig parameterizes the cross-hyperthread channel measurement.
type SMTConfig struct {
	// Bits transmitted per run.
	Bits int
	// Repeats is the sender's per-bit repetition count.
	Repeats int
	// Samples is how many prime–run–probe samples the receiver takes
	// per bit slot (must be <= Repeats).
	Samples int
	// SliceJitter is the maximum number of instructions by which each
	// time slice over- or under-shoots (OS timer imprecision).
	SliceJitter int
	Model       uarch.Model
	Seed        uint64
}

func (c SMTConfig) withDefaults() SMTConfig {
	if c.Bits == 0 {
		c.Bits = 4000
	}
	if c.Repeats == 0 {
		c.Repeats = 5
	}
	if c.Samples == 0 {
		c.Samples = c.Repeats
	}
	if c.SliceJitter == 0 {
		c.SliceJitter = 2
	}
	if c.Model.Name == "" {
		c.Model = uarch.Skylake()
	}
	return c
}

// SMTResult reports the cross-hyperthread channel quality.
type SMTResult struct {
	Config    SMTConfig
	ErrorRate float64
}

// String implements fmt.Stringer.
func (r SMTResult) String() string {
	return fmt.Sprintf(
		"Cross-hyperthread covert channel (§1), %s, %d bits, %dx repetition, slice jitter ±%d instr:\n"+
			"  error rate %s (no branch-granular victim control used)\n",
		r.Config.Model.Name, r.Config.Bits, r.Config.Repeats, r.Config.SliceJitter,
		stats.Percent(r.ErrorRate))
}

// Rows implements engine.Result.
func (r SMTResult) Rows() []engine.Row {
	return []engine.Row{{
		engine.F("model", r.Config.Model.Name),
		engine.F("bits", r.Config.Bits),
		engine.F("repeats", r.Config.Repeats),
		engine.F("slice_jitter", r.Config.SliceJitter),
		engine.F("error_rate", r.ErrorRate),
	}}
}

// RunSMT measures the cross-hyperthread covert channel.
func RunSMT(ctx context.Context, cfg SMTConfig) (SMTResult, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed + 19)
	sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
	secret := r.Bits(cfg.Bits)
	sender := sys.Spawn("sender", victims.PacedSender(secret, 0, cfg.Repeats))
	defer sender.Kill()

	spy := sys.NewProcess("spy")
	sess, err := core.NewSession(spy, r.Split(), core.AttackConfig{
		Search: core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true},
	})
	if err != nil {
		return SMTResult{}, fmt.Errorf("experiments: smt setup: %w", err)
	}

	// The receiver samples per bit slot: Samples prime–slice–probe
	// rounds of nominally one sender iteration each, then idles the
	// sender through the slot's remaining iterations. Slices are
	// jittered; the receiver keeps absolute position bookkeeping
	// (instructions granted versus the ideal schedule) so jitter never
	// accumulates into phase drift — standard covert-channel framing.
	slot := cfg.Repeats * victims.PacedIteration
	got := make([]bool, len(secret))
	total := 0 // sender instructions granted so far
	for i := range secret {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return SMTResult{}, fmt.Errorf("experiments: smt: %w", err)
			}
		}
		votes := 0
		for s := 0; s < cfg.Samples; s++ {
			ideal := i*slot + (s+1)*victims.PacedIteration
			jitter := r.Intn(2*cfg.SliceJitter+1) - cfg.SliceJitter
			budget := ideal - total + jitter
			if budget < 1 {
				budget = 1
			}
			sess.Prime()
			sender.Step(budget)
			total += budget
			if core.DecodeBit(sess.Probe()) {
				votes++
			}
		}
		if rest := (i+1)*slot - total; rest > 0 {
			sender.Step(rest)
			total += rest
		}
		got[i] = votes*2 > cfg.Samples
	}
	return SMTResult{Config: cfg, ErrorRate: stats.ErrorRate(got, secret)}, nil
}
