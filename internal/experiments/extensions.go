package experiments

import (
	"context"
	"fmt"
	"math/big"
	"strings"

	"branchscope/internal/attacks"
	"branchscope/internal/bpu"
	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/detect"
	"branchscope/internal/engine"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/stats"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// This file holds the extension experiments that go beyond the paper's
// measured artifacts but implement ideas the paper raises: the §10.1
// if-conversion software mitigation, the §1 branch-poisoning primitive,
// and the §10.2 attack-footprint detector.

// IfConversionConfig parameterizes the software-mitigation study: the
// Montgomery exponent-recovery attack is run against the normal ladder
// and against the if-converted (cswap/cmov) ladder.
type IfConversionConfig struct {
	ExponentBits int
	Model        uarch.Model
	Seed         uint64
}

func (c IfConversionConfig) withDefaults() IfConversionConfig {
	if c.ExponentBits == 0 {
		c.ExponentBits = 256
	}
	if c.Model.Name == "" {
		c.Model = uarch.Skylake()
	}
	return c
}

// QuickIfConversionConfig returns a test-scale configuration.
func QuickIfConversionConfig() IfConversionConfig {
	return IfConversionConfig{ExponentBits: 96}
}

// IfConversionResult compares recovery error against both ladders.
type IfConversionResult struct {
	Config IfConversionConfig
	// BranchyError is the bit recovery error against the normal ladder;
	// BranchlessError against the if-converted one (0.5 = no signal).
	BranchyError    float64
	BranchlessError float64
}

// RunIfConversion regenerates the software-mitigation study.
func RunIfConversion(ctx context.Context, cfg IfConversionConfig) (IfConversionResult, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed + 16)
	exp := new(big.Int).SetBit(big.NewInt(0), cfg.ExponentBits-1, 1)
	for i := 0; i < cfg.ExponentBits-1; i++ {
		if r.Bool() {
			exp.SetBit(exp, i, 1)
		}
	}
	truth := victims.ExponentBits(exp)
	base := big.NewInt(0x10001)
	modulus := new(big.Int).Lsh(big.NewInt(1), 127)
	modulus.Sub(modulus, big.NewInt(1))

	res := IfConversionResult{Config: cfg}

	// Against the normal ladder: the standard attack.
	{
		sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
		mres, err := attacks.RecoverMontgomeryExponent(sys, exp, 1, r.Uint64())
		if err != nil {
			return IfConversionResult{}, fmt.Errorf("experiments: if-conversion baseline setup: %w", err)
		}
		res.BranchyError = mres.ErrorRate()
	}

	// Against the if-converted ladder: the victim executes no
	// conditional branches, so the attacker cannot even step it by
	// branches; it falls back to stepping by the instruction budget of
	// one ladder iteration and probing as usual. Every probe sees only
	// its own primed state.
	{
		sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
		victim := sys.Spawn("ladder-ifconv",
			victims.BranchlessMontgomeryProcess(base, exp, modulus, nil))
		defer victim.Kill()
		spy := sys.NewProcess("spy")
		sess, err := core.NewSession(spy, r.Split(), core.AttackConfig{
			Search: core.SearchConfig{TargetAddr: victims.LadderBranchAddr, Focused: true},
		})
		if err != nil {
			return IfConversionResult{}, fmt.Errorf("experiments: if-conversion attack setup: %w", err)
		}
		const iterationInstructions = 810 // ~2*mulModCost + cswap overhead
		got := make([]bool, len(truth))
		for i := range truth {
			if i%256 == 0 {
				if err := ctx.Err(); err != nil {
					return IfConversionResult{}, fmt.Errorf("experiments: if-conversion: %w", err)
				}
			}
			sess.Prime()
			victim.Step(iterationInstructions)
			got[i] = core.DecodeBit(sess.Probe())
		}
		res.BranchlessError = stats.ErrorRate(got, truth)
	}
	return res, nil
}

// String implements fmt.Stringer.
func (r IfConversionResult) String() string {
	return fmt.Sprintf(
		"Software mitigation (§10.1 if-conversion), %d-bit exponent, %s:\n"+
			"  normal Montgomery ladder     %8s bit recovery error\n"+
			"  if-converted (cswap) ladder  %8s bit recovery error (0.5 = no leak)\n",
		r.Config.ExponentBits, r.Config.Model.Name,
		stats.Percent(r.BranchyError), stats.Percent(r.BranchlessError))
}

// Rows implements engine.Result.
func (r IfConversionResult) Rows() []engine.Row {
	return []engine.Row{{
		engine.F("model", r.Config.Model.Name),
		engine.F("exponent_bits", r.Config.ExponentBits),
		engine.F("branchy_error", r.BranchyError),
		engine.F("branchless_error", r.BranchlessError),
	}}
}

// PoisoningConfig parameterizes the branch-poisoning study (§1): the
// attacker forces a victim's well-predicted branch to mispredict on
// demand — the directional-predictor half of a Spectre-style setup.
type PoisoningConfig struct {
	Rounds int
	Model  uarch.Model
	Seed   uint64
}

func (c PoisoningConfig) withDefaults() PoisoningConfig {
	if c.Rounds == 0 {
		c.Rounds = 400
	}
	if c.Model.Name == "" {
		c.Model = uarch.Skylake()
	}
	return c
}

// QuickPoisoningConfig returns a test-scale configuration.
func QuickPoisoningConfig() PoisoningConfig { return PoisoningConfig{Rounds: 120} }

// PoisoningResult reports victim misprediction rates.
type PoisoningResult struct {
	Config PoisoningConfig
	// BaselineMissRate is the victim's branch misprediction rate left
	// alone; PoisonedMissRate with the attacker priming against it, and
	// AlignedMissRate with the attacker priming along it.
	BaselineMissRate float64
	PoisonedMissRate float64
	AlignedMissRate  float64
}

// RunPoisoning regenerates the poisoning study.
func RunPoisoning(ctx context.Context, cfg PoisoningConfig) (PoisoningResult, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed + 17)
	sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
	const addr = 0x0047_1100
	victim := sys.Spawn("victim", func(hw *cpu.Context) {
		for {
			hw.Work(4)
			hw.Branch(addr, true)
		}
	})
	defer victim.Kill()
	spy := sys.NewProcess("spy")
	p, err := attacks.NewPoisoner(spy, r.Split(), addr)
	if err != nil {
		return PoisoningResult{}, fmt.Errorf("experiments: poisoner setup: %w", err)
	}

	rate := func(poison func()) (float64, error) {
		before := victim.Context().ReadPMC(cpu.BranchMisses)
		for i := 0; i < cfg.Rounds; i++ {
			if i%256 == 0 {
				if err := ctx.Err(); err != nil {
					return 0, fmt.Errorf("experiments: poisoning: %w", err)
				}
			}
			if poison != nil {
				poison()
			}
			victim.StepBranches(1)
		}
		return float64(victim.Context().ReadPMC(cpu.BranchMisses)-before) / float64(cfg.Rounds), nil
	}

	res := PoisoningResult{Config: cfg}
	victim.StepBranches(10) // warm the victim's branch
	if res.BaselineMissRate, err = rate(nil); err != nil {
		return PoisoningResult{}, err
	}
	if res.PoisonedMissRate, err = rate(func() { p.Poison(false) }); err != nil {
		return PoisoningResult{}, err
	}
	if res.AlignedMissRate, err = rate(func() { p.Poison(true) }); err != nil {
		return PoisoningResult{}, err
	}
	return res, nil
}

// String implements fmt.Stringer.
func (r PoisoningResult) String() string {
	return fmt.Sprintf(
		"Branch poisoning (§1 / Spectre connection), %d rounds, %s:\n"+
			"  victim branch miss rate, undisturbed      %8s\n"+
			"  poisoned against the victim's direction   %8s\n"+
			"  poisoned along the victim's direction     %8s\n",
		r.Config.Rounds, r.Config.Model.Name,
		stats.Percent(r.BaselineMissRate),
		stats.Percent(r.PoisonedMissRate),
		stats.Percent(r.AlignedMissRate))
}

// Rows implements engine.Result.
func (r PoisoningResult) Rows() []engine.Row {
	return []engine.Row{{
		engine.F("model", r.Config.Model.Name),
		engine.F("rounds", r.Config.Rounds),
		engine.F("baseline_miss_rate", r.BaselineMissRate),
		engine.F("poisoned_miss_rate", r.PoisonedMissRate),
		engine.F("aligned_miss_rate", r.AlignedMissRate),
	}}
}

// DetectionConfig parameterizes the §10.2 footprint-detector study.
type DetectionConfig struct {
	// Bits transmitted by the monitored attacker.
	Bits  int
	Model uarch.Model
	Seed  uint64
}

func (c DetectionConfig) withDefaults() DetectionConfig {
	if c.Bits == 0 {
		c.Bits = 400
	}
	if c.Model.Name == "" {
		c.Model = uarch.Skylake()
	}
	return c
}

// QuickDetectionConfig returns a test-scale configuration.
func QuickDetectionConfig() DetectionConfig { return DetectionConfig{Bits: 120} }

// DetectionRow is one monitored workload.
type DetectionRow struct {
	Workload   string
	Detected   bool
	Alerts     int
	Windows    uint64
	Suspicious uint64
}

// DetectionResult reports the detector against the attacker and a set of
// benign workloads.
type DetectionResult struct {
	Config    DetectionConfig
	Workloads []DetectionRow
}

// RunDetection regenerates the detector study: the allocation-churn
// monitor watches (a) a full BranchScope spy, (b) a modular
// exponentiation service, (c) a JPEG decoder, and (d) a dense
// random-branch process (the documented false-positive case).
func RunDetection(ctx context.Context, cfg DetectionConfig) (DetectionResult, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed + 18)
	res := DetectionResult{Config: cfg}
	add := func(name string, m *detect.Monitor) {
		w, s := m.Stats()
		res.Workloads = append(res.Workloads, DetectionRow{
			Workload: name, Detected: m.Detected(), Alerts: m.Alerts(),
			Windows: w, Suspicious: s,
		})
	}

	{ // The attacker.
		sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
		secret := r.Bits(cfg.Bits)
		victim := sys.Spawn("victim", victims.LoopingSecretArraySender(secret, 0))
		spy := sys.NewProcess("spy")
		mon := detect.Attach(spy, detect.Config{})
		sess, err := core.NewSession(spy, r.Split(), core.AttackConfig{
			Search: core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true},
		})
		if err != nil {
			return DetectionResult{}, fmt.Errorf("experiments: detection setup: %w", err)
		}
		for i := range secret {
			if i%256 == 0 {
				if err := ctx.Err(); err != nil {
					return DetectionResult{}, fmt.Errorf("experiments: detection: %w", err)
				}
			}
			_ = secret[i]
			sess.SpyBit(victim, nil, nil)
		}
		victim.Kill()
		add("BranchScope spy", mon)
	}
	{ // Benign: modular exponentiation service.
		sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
		hw := sys.NewProcess("modexp")
		mon := detect.Attach(hw, detect.Config{})
		for i := 0; i < 12; i++ {
			exp := new(big.Int).SetUint64(r.Uint64() | 1<<63)
			victims.MontgomeryLadder(hw, big.NewInt(3), exp, big.NewInt(1000003))
		}
		add("modexp service (benign)", mon)
	}
	{ // Benign: JPEG decoder.
		sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
		hw := sys.NewProcess("decoder")
		mon := detect.Attach(hw, detect.Config{})
		var b victims.Block
		b[0][0] = 44
		b[2][6] = -3
		for i := 0; i < 150; i++ {
			victims.IDCT(hw, &b)
		}
		add("jpeg decoder (benign)", mon)
	}
	{ // The documented limitation: dense random branches.
		sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
		hw := sys.NewProcess("fuzzer")
		mon := detect.Attach(hw, detect.Config{})
		for i := 0; i < 4000; i++ {
			hw.Branch(0x9000+r.Uint64n(1<<16), r.Bool())
		}
		add("dense random branches (false positive)", mon)
	}
	return res, nil
}

// String implements fmt.Stringer.
func (r DetectionResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Attack-footprint detection (§10.2), allocation-churn monitor (%s):\n",
		r.Config.Model.Name)
	for _, row := range r.Workloads {
		verdict := "clean"
		if row.Detected {
			verdict = fmt.Sprintf("DETECTED (%d alerts)", row.Alerts)
		}
		fmt.Fprintf(&b, "  %-40s %-22s %d/%d suspicious windows\n",
			row.Workload, verdict, row.Suspicious, row.Windows)
	}
	return b.String()
}

// Rows implements engine.Result: one row per monitored workload.
func (r DetectionResult) Rows() []engine.Row {
	rows := make([]engine.Row, 0, len(r.Workloads))
	for _, row := range r.Workloads {
		rows = append(rows, engine.Row{
			engine.F("workload", row.Workload),
			engine.F("detected", row.Detected),
			engine.F("alerts", row.Alerts),
			engine.F("windows", row.Windows),
			engine.F("suspicious", row.Suspicious),
		})
	}
	return rows
}

// SlidingWindowConfig parameterizes the §9.2 "limited information"
// experiment: skeleton recovery against a sliding-window exponentiation.
type SlidingWindowConfig struct {
	ExponentBits int
	Traces       int
	Model        uarch.Model
	Seed         uint64
}

func (c SlidingWindowConfig) withDefaults() SlidingWindowConfig {
	if c.ExponentBits == 0 {
		c.ExponentBits = 512
	}
	if c.Traces == 0 {
		c.Traces = 3
	}
	if c.Model.Name == "" {
		c.Model = uarch.Skylake()
	}
	return c
}

// QuickSlidingWindowConfig returns a test-scale configuration.
func QuickSlidingWindowConfig() SlidingWindowConfig {
	return SlidingWindowConfig{ExponentBits: 128}
}

// SlidingWindowExpResult reports the experiment.
type SlidingWindowExpResult struct {
	Config SlidingWindowConfig
	Result attacks.SlidingWindowResult
}

// RunSlidingWindow regenerates the sliding-window skeleton recovery: the
// key-bit dependence is indirect (window scan), yet BranchScope's branch
// directions combined with classic step timing pin a large fraction of
// the key — the partial leakage §9.2 describes for modern libraries.
func RunSlidingWindow(ctx context.Context, cfg SlidingWindowConfig) (SlidingWindowExpResult, error) {
	cfg = cfg.withDefaults()
	if err := ctx.Err(); err != nil {
		return SlidingWindowExpResult{}, fmt.Errorf("experiments: sliding-window: %w", err)
	}
	r := rng.New(cfg.Seed + 20)
	exp := new(big.Int).SetBit(big.NewInt(0), cfg.ExponentBits-1, 1)
	for i := 0; i < cfg.ExponentBits-1; i++ {
		if r.Bool() {
			exp.SetBit(exp, i, 1)
		}
	}
	sys := sched.NewSystem(cfg.Model, r.Uint64())
	const unitCycles = 400 // one modular multiplication; calibrated offline
	res, err := attacks.RecoverSlidingWindowSkeleton(sys, exp, unitCycles, cfg.Traces, r.Uint64())
	if err != nil {
		return SlidingWindowExpResult{}, fmt.Errorf("experiments: sliding-window setup: %w", err)
	}
	return SlidingWindowExpResult{Config: cfg, Result: res}, nil
}

// String implements fmt.Stringer.
func (r SlidingWindowExpResult) String() string {
	return fmt.Sprintf(
		"Sliding-window exponentiation (§9.2 partial leakage), %d-bit key, %s:\n  %s\n",
		r.Config.ExponentBits, r.Config.Model.Name, r.Result)
}

// Rows implements engine.Result.
func (r SlidingWindowExpResult) Rows() []engine.Row {
	return []engine.Row{{
		engine.F("model", r.Config.Model.Name),
		engine.F("exponent_bits", r.Config.ExponentBits),
		engine.F("traces", r.Config.Traces),
		engine.F("known_bits", r.Result.KnownBits),
		engine.F("wrong_bits", r.Result.WrongBits),
		engine.F("known_fraction", r.Result.KnownFraction()),
	}}
}

// PredictorAblationConfig parameterizes the predictor-organization
// ablation: §5 argues the attack hinges on forcing the 1-level
// (PC-indexed) predictor; measuring the channel against pure-bimodal,
// hybrid, and pure-gshare units isolates that dependence.
type PredictorAblationConfig struct {
	Bits int
	Runs int
	Seed uint64
}

func (c PredictorAblationConfig) withDefaults() PredictorAblationConfig {
	if c.Bits == 0 {
		c.Bits = 4000
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	return c
}

// QuickPredictorAblationConfig returns a test-scale configuration.
func QuickPredictorAblationConfig() PredictorAblationConfig {
	return PredictorAblationConfig{Bits: 800, Runs: 1}
}

// PredictorAblationRow is one BPU organization's result.
type PredictorAblationRow struct {
	Mode        bpu.Mode
	ErrorRate   float64
	SetupFailed int
}

// PredictorAblationResult holds the ablation.
type PredictorAblationResult struct {
	Config PredictorAblationConfig
	Modes  []PredictorAblationRow
}

// RunPredictorAblation regenerates the ablation on the Skylake tables.
// The three BPU organizations run as independent units on the context's
// worker pool with per-mode derived seeds.
func RunPredictorAblation(ctx context.Context, cfg PredictorAblationConfig) (PredictorAblationResult, error) {
	cfg = cfg.withDefaults()
	res := PredictorAblationResult{Config: cfg}
	modes := []bpu.Mode{bpu.BimodalOnly, bpu.Hybrid, bpu.GshareOnly}
	rows, err := engine.Map(ctx, len(modes), func(i int) (PredictorAblationRow, error) {
		m := uarch.Skylake()
		m.BPU.Mode = modes[i]
		c, err := RunCovert(ctx, CovertConfig{
			Model: m, Setting: Isolated, Pattern: RandomBits,
			Bits: cfg.Bits, Runs: cfg.Runs,
			Seed: engine.DeriveSeed(cfg.Seed, "predictors", modes[i].String()),
		})
		if err != nil {
			return PredictorAblationRow{}, fmt.Errorf("predictor ablation %s: %w", modes[i], err)
		}
		return PredictorAblationRow{
			Mode: modes[i], ErrorRate: c.ErrorRate, SetupFailed: c.SetupFailed,
		}, nil
	})
	if err != nil {
		return PredictorAblationResult{}, err
	}
	res.Modes = rows
	return res, nil
}

// String implements fmt.Stringer.
func (r PredictorAblationResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Predictor-organization ablation (§5): covert error by BPU mode")
	fmt.Fprintln(&b, "(Skylake tables, isolated, random bits; 50% = channel closed)")
	for _, row := range r.Modes {
		note := ""
		if row.SetupFailed > 0 {
			note = fmt.Sprintf("  (pre-attack search failed in %d run(s))", row.SetupFailed)
		}
		fmt.Fprintf(&b, "  %-10s %8s%s\n", row.Mode, stats.Percent(row.ErrorRate), note)
	}
	return b.String()
}

// Rows implements engine.Result: one row per BPU organization.
func (r PredictorAblationResult) Rows() []engine.Row {
	rows := make([]engine.Row, 0, len(r.Modes))
	for _, row := range r.Modes {
		rows = append(rows, engine.Row{
			engine.F("mode", row.Mode.String()),
			engine.F("error_rate", row.ErrorRate),
			engine.F("setup_failed", row.SetupFailed),
		})
	}
	return rows
}

// TimingChannelConfig parameterizes the §8 end-to-end comparison: the
// covert channel run twice on the same configuration, once probing with
// the misprediction PMC and once with rdtscp timing only.
type TimingChannelConfig struct {
	Bits int
	Runs int
	Seed uint64
}

func (c TimingChannelConfig) withDefaults() TimingChannelConfig {
	if c.Bits == 0 {
		c.Bits = 4000
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	return c
}

// QuickTimingChannelConfig returns a test-scale configuration.
func QuickTimingChannelConfig() TimingChannelConfig {
	return TimingChannelConfig{Bits: 800, Runs: 1}
}

// TimingChannelResult compares the probe mechanisms.
type TimingChannelResult struct {
	Config TimingChannelConfig
	// PMCError and TSCError are the covert error rates with performance
	// counter and timestamp probing respectively.
	PMCError float64
	TSCError float64
}

// RunTimingChannel regenerates the comparison (Skylake, isolated, random
// bits).
func RunTimingChannel(ctx context.Context, cfg TimingChannelConfig) (TimingChannelResult, error) {
	cfg = cfg.withDefaults()
	base := CovertConfig{
		Model: uarch.Skylake(), Setting: Isolated, Pattern: RandomBits,
		Bits: cfg.Bits, Runs: cfg.Runs, Seed: cfg.Seed + 27,
	}
	pmc, err := RunCovert(ctx, base)
	if err != nil {
		return TimingChannelResult{}, fmt.Errorf("timing channel (pmc): %w", err)
	}
	base.UseTiming = true
	tsc, err := RunCovert(ctx, base)
	if err != nil {
		return TimingChannelResult{}, fmt.Errorf("timing channel (tsc): %w", err)
	}
	return TimingChannelResult{Config: cfg, PMCError: pmc.ErrorRate, TSCError: tsc.ErrorRate}, nil
}

// String implements fmt.Stringer.
func (r TimingChannelResult) String() string {
	return fmt.Sprintf(
		"Probe mechanism comparison (§8), Skylake isolated, %d bits:\n"+
			"  misprediction PMC probing   %8s\n"+
			"  rdtscp timing probing       %8s  (single-shot; Fig 8's m=1 predicts ~10%%)\n",
		r.Config.Bits, stats.Percent(r.PMCError), stats.Percent(r.TSCError))
}

// Rows implements engine.Result.
func (r TimingChannelResult) Rows() []engine.Row {
	return []engine.Row{{
		engine.F("bits", r.Config.Bits),
		engine.F("runs", r.Config.Runs),
		engine.F("pmc_error", r.PMCError),
		engine.F("tsc_error", r.TSCError),
	}}
}
