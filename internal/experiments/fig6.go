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
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// Fig6Config parameterizes the covert-channel decoding demonstration:
// a short bit string is transmitted, the raw per-bit probe patterns are
// recorded, and the decode dictionary is applied — reproducing the
// Figure 6 walk-through (including, with enough noise, the occasional
// erroneously received bit the figure shows).
type Fig6Config struct {
	// Bits is the demonstration payload (Figure 6 shows 10 bits).
	Bits []bool
	// NoisePerBit is the background activity per episode; the default
	// is cranked up so a decoding error is likely to appear in the
	// demo, as in the figure.
	NoisePerBit int
	Model       uarch.Model
	Seed        uint64
}

func (c Fig6Config) withDefaults() Fig6Config {
	if c.Bits == nil {
		c.Bits = []bool{false, true, true, false, true, true, false, true, true, false}
	}
	if c.NoisePerBit == 0 {
		c.NoisePerBit = 450
	}
	if c.Model.Name == "" {
		c.Model = uarch.SandyBridge()
	}
	return c
}

// Fig6Result is the demonstration transcript.
type Fig6Result struct {
	Config   Fig6Config
	Original []bool
	Patterns []core.Pattern
	Decoded  []bool
	Errors   int
}

// RunFig6 regenerates the Figure 6 demonstration.
func RunFig6(ctx context.Context, cfg Fig6Config) (Fig6Result, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed + 6)
	sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
	victim := sys.Spawn("sender", victims.LoopingSecretArraySender(cfg.Bits, 0))
	defer victim.Kill()
	noiseThread := sys.Spawn("noise", noise.Process(r.Uint64(), noise.DefaultRegion, 1<<22))
	defer noiseThread.Kill()
	spy := sys.NewProcess("spy")
	sess, err := core.NewSession(spy, r.Split(), core.AttackConfig{
		Search: core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true},
	})
	if err != nil {
		return Fig6Result{}, fmt.Errorf("experiments: fig6 session setup: %w", err)
	}

	res := Fig6Result{Config: cfg, Original: cfg.Bits}
	after := func() { noiseThread.Step(cfg.NoisePerBit) }
	for range cfg.Bits {
		if err := ctx.Err(); err != nil {
			return Fig6Result{}, fmt.Errorf("experiments: fig6: %w", err)
		}
		sess.Prime()
		victim.StepBranches(1)
		after()
		pat := sess.Probe()
		res.Patterns = append(res.Patterns, pat)
		res.Decoded = append(res.Decoded, core.DecodeBit(pat))
	}
	for i := range res.Original {
		if res.Decoded[i] != res.Original[i] {
			res.Errors++
		}
	}
	return res, nil
}

// Rows implements engine.Result: one "bit" row per transmitted bit plus
// one "summary" row with the error count.
func (r Fig6Result) Rows() []engine.Row {
	var rows []engine.Row
	for i := range r.Original {
		rows = append(rows, engine.Row{
			engine.F("kind", "bit"),
			engine.F("index", i),
			engine.F("original", r.Original[i]),
			engine.F("pattern", string(r.Patterns[i])),
			engine.F("decoded", r.Decoded[i]),
		})
	}
	rows = append(rows, engine.Row{
		engine.F("kind", "summary"),
		engine.F("bits", len(r.Original)),
		engine.F("errors", r.Errors),
	})
	return rows
}

// String renders the figure's rows: original bits, spy measurements,
// decoded bits, and the dictionary.
func (r Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 6: demonstration of BranchScope covert decoding")
	row := func(label string, f func(i int) string) {
		fmt.Fprintf(&b, "%-22s", label)
		for i := range r.Original {
			fmt.Fprintf(&b, " %2s", f(i))
		}
		fmt.Fprintln(&b)
	}
	bit := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	row("Original", func(i int) string { return bit(r.Original[i]) })
	row("Spy measurement 1", func(i int) string { return string(r.Patterns[i][0]) })
	row("Spy measurement 2", func(i int) string { return string(r.Patterns[i][1]) })
	row("Decoded", func(i int) string { return bit(r.Decoded[i]) })
	row("", func(i int) string {
		if r.Decoded[i] != r.Original[i] {
			return "^"
		}
		return " "
	})
	fmt.Fprintf(&b, "Spy dictionary: MM, HM -> 0; MH, HH -> 1. Errors: %d/%d\n",
		r.Errors, len(r.Original))
	return b.String()
}
