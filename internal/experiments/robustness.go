package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"branchscope/internal/chaos"
	"branchscope/internal/core"
	"branchscope/internal/engine"
	"branchscope/internal/uarch"
)

// RobustnessConfig parameterizes the fault-intensity × retry-budget
// sweep: the recovered-accuracy curve of the resilient attack loop
// against the naive single-episode loop under deterministic chaos.
type RobustnessConfig struct {
	// Model is the simulated CPU (default SandyBridge: its 4K-entry PHT
	// makes preemption bursts bite at realistic burst sizes).
	Model uarch.Model
	// Bits transmitted per PMC cell (one run each).
	Bits int
	// Intensities are the chaos multipliers swept (see chaos.AtIntensity;
	// 0 is the fault-free baseline).
	Intensities []float64
	// Budgets are the per-bit retry budgets swept; 0 means the naive
	// SpyBit loop (no voting, no outlier rejection, no Unknown).
	Budgets []int
	// TimingBits transmitted per rdtscp cell; timing cells exercise the
	// drift-recalibration path under TSC jitter. 0 disables them.
	TimingBits int
	// Seed drives all randomness.
	Seed uint64
}

func (c RobustnessConfig) withDefaults() RobustnessConfig {
	if c.Model.Name == "" {
		c.Model = uarch.SandyBridge()
	}
	if c.Bits <= 0 {
		c.Bits = 1200
	}
	if len(c.Intensities) == 0 {
		c.Intensities = []float64{0, chaos.LightIntensity, chaos.ModerateIntensity, chaos.HeavyIntensity}
	}
	if len(c.Budgets) == 0 {
		c.Budgets = []int{0, 3, 7}
	}
	return c
}

// stormPMCProb is the per-episode PMC-corruption probability of the
// storm scenario: half of all probe windows read garbage, far past the
// health gate's trip threshold.
const stormPMCProb = 0.5

// RobustnessCell is one point of the sweep.
type RobustnessCell struct {
	// Scenario is "" for the intensity×budget sweep and "storm" for the
	// PMC-saturation-storm pair that exercises the health-gated
	// degradation path.
	Scenario string
	// Probe is "pmc" or "tsc" — the probe the cell was configured with;
	// a degraded storm cell starts on PMC and falls back to timing.
	Probe string
	// Intensity is the chaos multiplier of the cell's plan.
	Intensity float64
	// Budget is the per-bit attempt budget (0: naive loop).
	Budget int
	// ErrorRate is the channel error rate (unknown bits count 0.5).
	ErrorRate float64
	// UnknownRate is the fraction of bits reported Unknown.
	UnknownRate float64
	// WrongKnownRate is the fraction of all bits that were decoded
	// confidently and wrongly — the silent-error rate.
	WrongKnownRate float64
	// KnownAccuracy is correct known bits / known bits: what the
	// resilient loop recovers on the bits it commits to.
	KnownAccuracy float64
	// Recalibrations counts drift-triggered detector rebuilds (timing
	// cells only).
	Recalibrations int
	// Degraded counts runs whose health gate fell back from PMC to
	// timing probes (storm cells with the gate armed).
	Degraded int
	// MutualInformationBits and CapacityBits are the cell's channel-
	// quality estimates in bits/branch (see internal/leakage): what the
	// degraded channel still carries, which is how the mitigation
	// literature scores residual leakage.
	MutualInformationBits float64
	CapacityBits          float64
}

// RobustnessResult is the full sweep.
type RobustnessResult struct {
	Config RobustnessConfig
	Cells  []RobustnessCell
}

// budgetLabel renders a budget column value.
func budgetLabel(b int) string {
	if b <= 0 {
		return "naive"
	}
	return strconv.Itoa(b)
}

// String implements fmt.Stringer: the accuracy-vs-intensity table plus
// a recovered-accuracy summary at each intensity.
func (r RobustnessResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness sweep: %s, isolated, random pattern, %d bits/pmc cell",
		r.Config.Model.Name, r.Config.Bits)
	if r.Config.TimingBits > 0 {
		fmt.Fprintf(&b, ", %d bits/tsc cell", r.Config.TimingBits)
	}
	fmt.Fprintf(&b, "\n%-5s %-9s %-7s %8s %9s %12s %10s %6s %8s %8s\n",
		"probe", "intensity", "budget", "error", "unknown", "wrong-known", "acc-known", "recal", "mi", "capacity")
	for _, c := range r.Cells {
		if c.Scenario != "" {
			continue
		}
		fmt.Fprintf(&b, "%-5s %-9.2f %-7s %7.2f%% %8.2f%% %11.2f%% %9.2f%% %6d %8.3f %8.3f\n",
			c.Probe, c.Intensity, budgetLabel(c.Budget),
			100*c.ErrorRate, 100*c.UnknownRate, 100*c.WrongKnownRate,
			100*c.KnownAccuracy, c.Recalibrations,
			c.MutualInformationBits, c.CapacityBits)
	}
	// Recovered-accuracy summary: naive vs the deepest budget, per
	// intensity, on the PMC probe.
	best := 0
	for _, bd := range r.Config.Budgets {
		if bd > best {
			best = bd
		}
	}
	for _, in := range r.Config.Intensities {
		var naive, resilient *RobustnessCell
		for i := range r.Cells {
			c := &r.Cells[i]
			if c.Probe != "pmc" || c.Intensity != in {
				continue
			}
			if c.Budget == 0 {
				naive = c
			}
			if c.Budget == best {
				resilient = c
			}
		}
		if naive == nil || resilient == nil || best == 0 {
			continue
		}
		fmt.Fprintf(&b, "intensity %.2f: naive accuracy %.2f%%, resilient (budget %d) known-bit accuracy %.2f%% with %.2f%% unknown\n",
			in, 100*(1-naive.ErrorRate), best, 100*resilient.KnownAccuracy, 100*resilient.UnknownRate)
	}
	// Storm mini-table: the same PMC probe under a saturation storm,
	// with the health gate off vs armed.
	storm := false
	for _, c := range r.Cells {
		if !strings.HasPrefix(c.Scenario, "storm") {
			continue
		}
		if !storm {
			fmt.Fprintf(&b, "PMC saturation storm (corrupt p=%.2f, naive loop):\n", stormPMCProb)
			storm = true
		}
		gate := "off"
		if c.Scenario == "storm+degrade" {
			gate = "armed"
			if c.Degraded > 0 {
				gate = "tripped->tsc"
			}
		}
		fmt.Fprintf(&b, "  health gate %-12s error %6.2f%%, degraded runs %d\n",
			gate, 100*c.ErrorRate, c.Degraded)
	}
	return b.String()
}

// Rows implements engine.Result.
func (r RobustnessResult) Rows() []engine.Row {
	rows := make([]engine.Row, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, engine.Row{
			engine.F("scenario", c.Scenario),
			engine.F("probe", c.Probe),
			engine.F("intensity", c.Intensity),
			engine.F("budget", c.Budget),
			engine.F("error_rate", c.ErrorRate),
			engine.F("unknown_rate", c.UnknownRate),
			engine.F("wrong_known_rate", c.WrongKnownRate),
			engine.F("known_accuracy", c.KnownAccuracy),
			engine.F("recalibrations", c.Recalibrations),
			engine.F("degraded_runs", c.Degraded),
			engine.F("mutual_information_bits", c.MutualInformationBits),
			engine.F("capacity_bits", c.CapacityBits),
		})
	}
	return rows
}

// robustnessSpec identifies one cell of the sweep.
type robustnessSpec struct {
	scenario  string // "" for the sweep grid, "storm"/"storm+degrade"
	probe     string
	intensity float64
	budget    int
	bits      int
	degrade   bool
}

// RunRobustness sweeps fault intensity × retry budget and reports the
// recovered-accuracy curve. The PMC grid is the full cross product; the
// rdtscp rows run the naive loop and the deepest budget at every
// intensity, exercising drift detection and recalibration under TSC
// jitter. Cells fan out on the context's worker pool with
// scheduling-independent derived seeds, so output is byte-identical at
// any parallelism.
func RunRobustness(ctx context.Context, cfg RobustnessConfig) (RobustnessResult, error) {
	cfg = cfg.withDefaults()
	var specs []robustnessSpec
	for _, in := range cfg.Intensities {
		for _, bd := range cfg.Budgets {
			specs = append(specs, robustnessSpec{probe: "pmc", intensity: in, budget: bd, bits: cfg.Bits})
		}
	}
	if cfg.TimingBits > 0 {
		best := 0
		for _, bd := range cfg.Budgets {
			if bd > best {
				best = bd
			}
		}
		for _, in := range cfg.Intensities {
			for _, bd := range []int{0, best} {
				if bd == 0 && best == 0 {
					continue
				}
				specs = append(specs, robustnessSpec{probe: "tsc", intensity: in, budget: bd, bits: cfg.TimingBits})
			}
		}
	}
	// The storm pair: the naive PMC loop under a counter-saturation
	// storm, without and with the health gate. The armed cell must trip
	// the gate and recover on the timing fallback; the unarmed one rides
	// the corrupted counters to the end.
	specs = append(specs,
		robustnessSpec{scenario: "storm", probe: "pmc", budget: 0, bits: cfg.Bits},
		robustnessSpec{scenario: "storm+degrade", probe: "pmc", budget: 0, bits: cfg.Bits, degrade: true},
	)
	cells, err := engine.Map(ctx, len(specs), func(i int) (RobustnessCell, error) {
		return runRobustnessCell(ctx, cfg, specs[i])
	})
	if err != nil {
		return RobustnessResult{}, err
	}
	return RobustnessResult{Config: cfg, Cells: cells}, nil
}

// runRobustnessCell measures one sweep point through the covert-channel
// harness.
func runRobustnessCell(ctx context.Context, cfg RobustnessConfig, sp robustnessSpec) (RobustnessCell, error) {
	// The seed depends only on the cell's identity, never on sweep
	// order — the engine determinism contract. Sweep-grid cells keep
	// their historical derivation; scenario cells fold the scenario in.
	seedParts := []string{"robustness", sp.probe,
		strconv.FormatFloat(sp.intensity, 'g', -1, 64), strconv.Itoa(sp.budget)}
	if sp.scenario != "" {
		seedParts = append(seedParts, sp.scenario)
	}
	seed := engine.DeriveSeed(cfg.Seed, seedParts...)
	ccfg := CovertConfig{
		Model:     cfg.Model,
		Setting:   Isolated,
		Pattern:   RandomBits,
		Bits:      sp.bits,
		Runs:      1,
		UseTiming: sp.probe == "tsc",
		Seed:      seed,
	}
	// Every cell pins Chaos and Retry explicitly: the sweep must not
	// inherit the run's Overrides a -chaos/-retry flag installs,
	// or its axes would be silently distorted.
	plan := chaos.AtIntensity(engine.DeriveSeed(seed, "chaos"), sp.intensity)
	if sp.scenario != "" {
		// Storm cells replace the intensity ladder with a pure PMC
		// saturation storm: nothing else is perturbed, so any error is
		// attributable to the counters alone.
		plan = chaos.Plan{
			Seed:       engine.DeriveSeed(seed, "chaos"),
			PMCCorrupt: chaos.Spec{Prob: stormPMCProb},
		}
	}
	ccfg.Chaos = &plan
	if sp.degrade {
		ccfg.Degrade = core.DegradeConfig{MaxFaultRate: core.DefaultDegradeMaxFaultRate}
	}
	if sp.budget > 0 {
		ccfg.Retry = core.RetryConfig{MaxAttempts: sp.budget}
	} else {
		// A negative budget reads as "naive" everywhere while keeping
		// the config nonzero, which is what opts out of the run's retry
		// override.
		ccfg.Retry = core.RetryConfig{MaxAttempts: -1}
	}
	res, err := RunCovert(ctx, ccfg)
	if err != nil {
		return RobustnessCell{}, fmt.Errorf("experiments: robustness %s i=%g b=%d: %w",
			sp.probe, sp.intensity, sp.budget, err)
	}
	cell := RobustnessCell{
		Scenario:              sp.scenario,
		Probe:                 sp.probe,
		Intensity:             sp.intensity,
		Budget:                sp.budget,
		ErrorRate:             res.ErrorRate,
		Recalibrations:        res.Recalibrations,
		Degraded:              res.DegradedRuns,
		MutualInformationBits: res.Leakage.MutualInformationBits,
		CapacityBits:          res.Leakage.CapacityBits,
	}
	bits := float64(sp.bits)
	unknown := float64(res.Unknown)
	cell.UnknownRate = unknown / bits
	// ErrorRate = (wrongKnown + 0.5*unknown) / bits, so the silent
	// wrong-bit count falls out exactly.
	wrongKnown := res.ErrorRate*bits - 0.5*unknown
	if wrongKnown < 0 {
		wrongKnown = 0
	}
	cell.WrongKnownRate = wrongKnown / bits
	if known := bits - unknown; known > 0 {
		cell.KnownAccuracy = 1 - wrongKnown/known
	}
	return cell, nil
}
