// Package detect implements the detection countermeasure sketched in
// §10.2: "a class of solutions may focus on detecting the attack
// footprint and invoking mitigations such as freezing or killing the
// attacker process if an ongoing attack is detected."
//
// BranchScope's footprint is distinctive — but not where one would first
// look. The randomization block's mispredictions fade after its first
// execution (the block is static code, so the predictor simply learns
// it); what cannot fade is its *working-set churn*: the block exists to
// cycle branches through the predictor so the victim's branch is always
// freshly evicted, so the attacker sustains a rate of new-branch
// allocations in the seen-branch tracker that no well-behaved program
// approaches (ordinary code has a stable branch working set after
// warmup). The Monitor samples a per-context allocation counter every
// window of retired instructions, scores windows whose allocation
// density crosses a threshold, and raises an alert after enough
// consecutive suspicious windows — at which point the OS would freeze or
// kill the process.
//
// The detector is honest about its limits: any process that sprays dense
// branches over a large code footprint (a JIT warming up, a fuzzer, our
// background noise generator) is indistinguishable from an attacker by
// this footprint — which is precisely why the paper classifies detection
// as a partial defense.
package detect

import "branchscope/internal/cpu"

// Config tunes the monitor.
type Config struct {
	// WindowInstructions is the sampling period (default 256).
	WindowInstructions int
	// AllocDensity is the suspicious new-branch-allocations-per-
	// instruction threshold for one window (default 0.12). A fresh
	// randomization block allocates on most of its branches (~0.6); in
	// steady state re-execution only its self-evicting alias chain
	// keeps allocating (~0.25). Benign code after warmup stays near 0,
	// so the default sits well below the attack and well above benign.
	AllocDensity float64
	// ConsecutiveWindows is how many suspicious windows in a row raise
	// an alert (default 3).
	ConsecutiveWindows int
}

func (c Config) withDefaults() Config {
	if c.WindowInstructions <= 0 {
		c.WindowInstructions = 256
	}
	if c.AllocDensity == 0 {
		c.AllocDensity = 0.12
	}
	if c.ConsecutiveWindows <= 0 {
		c.ConsecutiveWindows = 3
	}
	return c
}

// Monitor watches one hardware context.
type Monitor struct {
	ctx *cpu.Context
	cfg Config

	sinceWindow uint64
	lastAllocs  uint64
	streak      int
	alerts      int
	windows     uint64
	suspicious  uint64
}

// Attach installs a monitor on ctx, composing with any existing retire
// hook (the monitor samples before the previous hook, which may park the
// thread).
func Attach(ctx *cpu.Context, cfg Config) *Monitor {
	m := &Monitor{ctx: ctx, cfg: cfg.withDefaults()}
	m.lastAllocs = ctx.ReadPMC(cpu.BranchAllocations)
	prev := ctx.Hook()
	ctx.SetHook(func(isBranch bool) {
		m.observe()
		if prev != nil {
			prev(isBranch)
		}
	})
	return m
}

func (m *Monitor) observe() {
	m.sinceWindow++
	if m.sinceWindow < uint64(m.cfg.WindowInstructions) {
		return
	}
	m.sinceWindow = 0
	m.windows++
	allocs := m.ctx.ReadPMC(cpu.BranchAllocations)
	density := float64(allocs-m.lastAllocs) / float64(m.cfg.WindowInstructions)
	m.lastAllocs = allocs
	if density >= m.cfg.AllocDensity {
		m.suspicious++
		m.streak++
		if m.streak == m.cfg.ConsecutiveWindows {
			m.alerts++
		}
	} else {
		m.streak = 0
	}
}

// Alerts returns how many times the consecutive-window criterion fired.
func (m *Monitor) Alerts() int { return m.alerts }

// Detected reports whether at least one alert fired — the point at which
// the OS would freeze or kill the process.
func (m *Monitor) Detected() bool { return m.alerts > 0 }

// Stats returns (windows sampled, suspicious windows).
func (m *Monitor) Stats() (windows, suspicious uint64) {
	return m.windows, m.suspicious
}
