package experiments

import (
	"context"
	"fmt"

	"branchscope/internal/chaos"
	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/engine"
	"branchscope/internal/leakage"
	"branchscope/internal/noise"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/sgx"
	"branchscope/internal/stats"
	"branchscope/internal/telemetry"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// Setting is the paper's system-noise configuration (§7).
type Setting int

const (
	// Isolated pins the benchmark to an isolated physical core with
	// only residual kernel activity.
	Isolated Setting = iota
	// Noisy places no scheduling restrictions: other system activity
	// shares the core's second hardware context.
	Noisy
)

// String implements fmt.Stringer.
func (s Setting) String() string {
	if s == Isolated {
		return "isolated"
	}
	return "with noise"
}

// BitPattern selects the transmitted secret of the covert benchmark.
type BitPattern int

const (
	// AllZeros transmits only 0 (not-taken) bits.
	AllZeros BitPattern = iota
	// AllOnes transmits only 1 (taken) bits.
	AllOnes
	// RandomBits transmits uniformly random bits.
	RandomBits
)

// String implements fmt.Stringer using the paper's column labels.
func (p BitPattern) String() string {
	switch p {
	case AllZeros:
		return "All 0"
	case AllOnes:
		return "All 1"
	default:
		return "Random"
	}
}

// Bits materializes n bits of the pattern.
func (p BitPattern) Bits(n int, r *rng.Source) []bool {
	bits := make([]bool, n)
	switch p {
	case AllOnes:
		for i := range bits {
			bits[i] = true
		}
	case RandomBits:
		for i := range bits {
			bits[i] = r.Bool()
		}
	}
	return bits
}

// CovertConfig parameterizes one covert-channel measurement cell.
type CovertConfig struct {
	// Model is the simulated CPU.
	Model uarch.Model
	// Setting selects isolated vs noisy.
	Setting Setting
	// Pattern selects the transmitted bits.
	Pattern BitPattern
	// Bits per run (the paper transmits 1e6; tests scale down).
	Bits int
	// Runs to average over (the paper uses 10).
	Runs int
	// SGX places the sender inside an enclave with the OS assisting the
	// spy (Table 3): background noise is suppressed by the malicious OS
	// — entirely in the isolated case, partially in the noisy one.
	SGX bool
	// UseTiming switches the spy from PMC probing to rdtscp probing.
	UseTiming bool
	// Prepare, when non-nil, runs against each fresh system before the
	// attack starts (mitigation studies configure the BPU here). It
	// must not read the clock: the system is clockless unless the cell
	// has telemetry, UseTiming, an armed Degrade gate or a SpyHook.
	Prepare func(*sched.System)
	// SpyHook, when non-nil, receives the spy's hardware context right
	// after creation (tracing and detection harnesses attach here).
	SpyHook func(*cpu.Context)
	// Telemetry, when non-nil, instruments every simulated machine the
	// measurement boots (falling back to the run's Overrides; see
	// WithOverrides). Metrics and traces record simulated
	// cycles only, so exports are deterministic per seed.
	Telemetry *telemetry.Set
	// Chaos, when non-nil and enabled, attaches a fault injector
	// realizing the plan to every system the measurement boots
	// (falling back to the run's Overrides; see WithOverrides).
	// Faults start after session setup: the pre-attack search and
	// calibration model the quiet moment a real attacker waits for.
	Chaos *chaos.Plan
	// Retry, when nonzero (falling back to the run's Overrides),
	// switches the spy to the resilient read path: per-bit majority
	// voting under Retry.MaxAttempts with outlier rejection, Unknown
	// reporting (counted as a coin flip, like a failed setup), and —
	// for timing sessions — drift-triggered recalibration. The zero
	// value keeps the paper's naive single-episode loop.
	Retry core.RetryConfig
	// Degrade arms each run's health gate: a PMC-probing session whose
	// counter readouts turn implausible past the threshold falls back
	// to rdtscp timing probing mid-run (see core.DegradeConfig and
	// DESIGN §3.16). Zero disables it — the default, so every existing
	// cell keeps its configured probe identity.
	Degrade core.DegradeConfig
	// Seed drives all randomness.
	Seed uint64
}

// CovertResult is one cell of Table 2 / Table 3.
type CovertResult struct {
	Config    CovertConfig
	ErrorRate float64   // mean over runs
	PerRun    []float64 // individual run error rates
	// SetupFailed counts runs in which the pre-attack block search
	// found no usable randomization block (the channel could not even
	// be established — mitigations cause this). Such runs contribute an
	// error rate of 0.5 (guessing).
	SetupFailed int
	// Unknown counts bits the resilient read path gave up on within its
	// attempt budget (always 0 on the naive path). Each contributes 0.5
	// to the error rate — an admitted guess, never a silent wrong bit.
	Unknown int
	// Recalibrations counts timing-detector rebuilds triggered by the
	// resilient path's drift checks, summed over runs.
	Recalibrations int
	// DegradedRuns counts runs whose session's health gate fell back
	// from PMC to timing probing mid-run (always 0 unless
	// Config.Degrade arms the gate) — the report-side audit trail of a
	// degraded measurement.
	DegradedRuns int
	// Leakage is the cell's channel-quality report: BER, mutual
	// information and capacity in bits/branch, SNR, and the 3-outcome
	// confusion matrix, merged over all runs (one leakage window per
	// run). Deterministic per seed like every other field.
	Leakage leakage.Report
}

// String implements fmt.Stringer.
func (r CovertResult) String() string {
	return fmt.Sprintf("%s %s %s: %s", r.Config.Model.Name, r.Config.Setting,
		r.Config.Pattern, stats.Percent(r.ErrorRate))
}

// Rows implements engine.Result.
func (r CovertResult) Rows() []engine.Row {
	return []engine.Row{{
		engine.F("model", r.Config.Model.Name),
		engine.F("setting", r.Config.Setting.String()),
		engine.F("pattern", r.Config.Pattern.String()),
		engine.F("bits", r.Config.Bits),
		engine.F("runs", r.Config.Runs),
		engine.F("error_rate", r.ErrorRate),
		engine.F("per_run", r.PerRun),
		engine.F("setup_failed", r.SetupFailed),
		engine.F("unknown_bits", r.Unknown),
		engine.F("degraded_runs", r.DegradedRuns),
		engine.F("bit_error_rate", r.Leakage.BitErrorRate),
		engine.F("mutual_information_bits", r.Leakage.MutualInformationBits),
		engine.F("capacity_bits", r.Leakage.CapacityBits),
		engine.F("snr", r.Leakage.SNR),
	}}
}

// noiseBudget returns the per-episode background instruction count for
// the configuration.
func noiseBudget(cfg CovertConfig) int {
	m := cfg.Model
	switch {
	case cfg.SGX && cfg.Setting == Isolated:
		// The malicious OS stops everything else.
		return 0
	case cfg.SGX:
		// The OS cannot fully suppress its own housekeeping.
		return m.NoiseIsolatedBranches / 2
	case cfg.Setting == Isolated:
		return m.NoiseIsolatedBranches
	default:
		return m.NoiseNoisyBranches
	}
}

// RunCovert measures the covert-channel error rate for one configuration
// (one cell of Table 2/3). Each run boots a fresh system, spawns the
// sender (a Listing 2 secret-array victim, optionally inside an SGX
// enclave), performs the pre-attack block search, and transmits
// cfg.Bits bits with prime–step–probe episodes, interleaving background
// noise per the setting. Cancelling ctx aborts between runs and every
// few hundred transmitted bits.
func RunCovert(ctx context.Context, cfg CovertConfig) (CovertResult, error) {
	if cfg.Bits <= 0 {
		cfg.Bits = 1000
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 3
	}
	if ov := OverridesFrom(ctx); ov != nil {
		// The run's overrides fill only what the cell's own config leaves
		// unset: the robustness sweep pins its plan and budget per cell.
		if cfg.Telemetry == nil {
			cfg.Telemetry = ov.Telemetry
		}
		if cfg.Chaos == nil {
			cfg.Chaos = ov.Chaos
		}
		if cfg.Retry == (core.RetryConfig{}) && ov.Retry != nil {
			cfg.Retry = *ov.Retry
		}
	}
	root := rng.New(cfg.Seed ^ 0xc0de)
	res := CovertResult{Config: cfg}
	est := &leakage.Estimator{}
	for run := 0; run < cfg.Runs; run++ {
		rate, err := runCovertOnce(ctx, cfg, root.Split(), &res, est)
		if err != nil {
			return CovertResult{}, fmt.Errorf("experiments: covert run %d: %w", run, err)
		}
		res.PerRun = append(res.PerRun, rate)
	}
	res.ErrorRate = stats.Mean(res.PerRun)
	res.Leakage = est.Report()
	cfg.Telemetry.Gauge("covert.error_rate").Set(res.ErrorRate)
	cfg.Telemetry.Gauge("leakage.ber").Set(res.Leakage.BitErrorRate)
	cfg.Telemetry.Gauge("leakage.mi_bits").Set(res.Leakage.MutualInformationBits)
	cfg.Telemetry.Gauge("leakage.capacity_bits").Set(res.Leakage.CapacityBits)
	cfg.Telemetry.Gauge("leakage.snr").Set(res.Leakage.SNR)
	leakage.PublishReport(res.Leakage)
	return res, nil
}

// leakageWindowBuckets covers [0, 1000] permille/millibit values in 20
// linear steps — window BER and MI both live on bounded [0,1] scales.
func leakageWindowBuckets() []uint64 { return telemetry.LinearBuckets(50, 50, 20) }

// finishWindow closes one run's leakage window: it feeds the window
// histograms, bumps the window counter, and merges the window into the
// cell estimator.
func finishWindow(tel *telemetry.Set, est, win *leakage.Estimator) {
	wr := win.Report()
	if wr.Bits == 0 {
		return
	}
	tel.Counter("leakage.windows").Inc()
	tel.Histogram("leakage.window.ber_permille", leakageWindowBuckets()).Observe(uint64(wr.BitErrorRate * 1000))
	tel.Histogram("leakage.window.mi_millibits", leakageWindowBuckets()).Observe(uint64(wr.MutualInformationBits * 1000))
	est.Merge(win)
}

func runCovertOnce(ctx context.Context, cfg CovertConfig, r *rng.Source, res *CovertResult, est *leakage.Estimator) (float64, error) {
	tel := cfg.Telemetry
	// Only telemetry, rdtscp probing (configured, or a degraded session's
	// fallback) and a spy hook (trace.Recorder) read the clock; without
	// them the machine is clockless, with the same results (DESIGN §3.5).
	model := cfg.Model
	if tel == nil && !cfg.UseTiming && cfg.Degrade.MaxFaultRate <= 0 && cfg.SpyHook == nil {
		model = model.Clockless()
	}
	sys := sched.NewSystem(model, r.Uint64())
	if tel != nil {
		sys.SetTelemetry(tel)
		// Simulated cycles accumulate across runs; wall time is
		// deliberately absent so metric exports stay reproducible per
		// seed.
		defer func() {
			tel.Counter("covert.simulated_cycles").Add(sys.Core().Clock())
		}()
	}
	tel.Counter("covert.runs").Inc()
	if cfg.Prepare != nil {
		cfg.Prepare(sys)
	}
	secret := cfg.Pattern.Bits(cfg.Bits, r)
	tel.Counter("covert.bits").Add(uint64(len(secret)))

	// The sender. The resilient read spends a variable number of
	// episodes per bit, so it needs the retransmission-capable sender
	// (the receiver advances the cursor only once a bit is decided).
	// Retry.MaxAttempts == 0 keeps the paper's free-running Listing 2
	// sender with the naive loop; a negative budget selects the naive
	// loop over the held-bit sender — the robustness sweep's baseline,
	// which isolates the read loop itself from protocol
	// desynchronization (victim jitter would permanently desync a
	// free-running sender and flatten every naive cell to a coin flip).
	resilient := cfg.Retry.MaxAttempts > 0
	var cursor int
	senderFn := victims.LoopingSecretArraySender(secret, 0)
	if cfg.Retry.MaxAttempts != 0 {
		senderFn = victims.HeldBitSender(secret, 0, &cursor)
	}
	var victim core.Stepper
	if cfg.SGX {
		e := sgx.Launch(sys, "sender", senderFn)
		defer e.Destroy()
		victim = e
	} else {
		th := sys.Spawn("sender", senderFn)
		defer th.Kill()
		victim = th
	}

	// Background noise on the sibling hardware context.
	budget := noiseBudget(cfg)
	var noiseThread *sched.Thread
	if budget > 0 {
		noiseThread = sys.Spawn("noise", noise.Process(r.Uint64(), noise.DefaultRegion, 1<<22))
		defer noiseThread.Kill()
	}
	noiseInjections := tel.Counter("covert.noise_injections")
	stepNoise := func(n int) func() {
		if noiseThread == nil || n <= 0 {
			return nil
		}
		return func() {
			noiseInjections.Inc()
			noiseThread.Step(n)
		}
	}

	spy := sys.NewProcess("spy")
	if cfg.SpyHook != nil {
		cfg.SpyHook(spy)
	}
	// One leakage window per run: the episode hook feeds the raw probe
	// signal (SNR path) under the bit being transmitted, the decode
	// loops below feed the confusion matrix.
	win := &leakage.Estimator{}
	sess, err := core.NewSession(spy, r.Split(), core.AttackConfig{
		Search:    core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true},
		UseTiming: cfg.UseTiming,
		Retry:     cfg.Retry,
		Degrade:   cfg.Degrade,
		EpisodeHook: func(o core.EpisodeObservation) {
			// The second probe measurement carries the discriminating
			// signal (the decode dictionary splits on it: MM/HM → 0,
			// MH/HH → 1), so it is what the SNR is computed over.
			win.Signal(secret[cursor], float64(o.Second))
		},
	})
	if err != nil {
		// The channel could not be established: the attacker is
		// reduced to guessing.
		res.SetupFailed++
		tel.Counter("covert.setup_failures").Inc()
		return 0.5, nil
	}
	// Snapshot the predictor on the way out, whatever path returns: the
	// end-of-run PHT state and mispredict heatmap feed /introspect/pht
	// and the -introspect-out export.
	defer func() { leakage.PublishIntrospection(sys.Core().BPU().Introspect()) }()

	// Fault injection starts here — after the pre-attack search and
	// timing calibration — and wraps the victim with the plan's
	// slowdown jitter. Chaos episode boundaries ride the same
	// before/after hooks the noise budget uses, adjacent to the step.
	before, after := stepNoise(budget/2), stepNoise(budget-budget/2)
	if plan := cfg.Chaos; plan != nil && plan.HasEpisodeFaults() {
		inj := chaos.NewInjector(sys, plan.WithSeed(plan.Seed^r.Uint64()))
		defer inj.Detach()
		victim = inj.WrapStepper(victim)
		before = joinHooks(before, inj.BeforeStep)
		after = joinHooks(inj.AfterStep, after)
	}

	if !resilient {
		got := make([]bool, len(secret))
		for i := range secret {
			if i%256 == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			cursor = i // no-op for the free-running sender
			got[i] = sess.SpyBit(victim, before, after)
			win.Observe(secret[i], got[i], true)
		}
		if sess.Degraded() {
			res.DegradedRuns++
			tel.Counter("covert.degraded_runs").Inc()
		}
		finishWindow(tel, est, win)
		return stats.ErrorRate(got, secret), nil
	}

	// Resilient loop: majority-vote each bit under the attempt budget,
	// advance the sender's cursor only once decided, and score an
	// Unknown as a coin flip — graceful degradation, not silent error.
	unknownBits := tel.Counter("covert.unknown_bits")
	errSum := 0.0
	for i := range secret {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		cursor = i
		rd := sess.ReadBit(victim, before, after)
		win.Observe(secret[i], rd.Bit, rd.Known)
		switch {
		case !rd.Known:
			res.Unknown++
			unknownBits.Inc()
			errSum += 0.5
		case rd.Bit != secret[i]:
			errSum++
		}
	}
	res.Recalibrations += sess.Recalibrations()
	if sess.Degraded() {
		res.DegradedRuns++
		tel.Counter("covert.degraded_runs").Inc()
	}
	finishWindow(tel, est, win)
	return errSum / float64(len(secret)), nil
}

// joinHooks composes two optional episode hooks in order.
func joinHooks(a, b func()) func() {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func() { a(); b() }
}
