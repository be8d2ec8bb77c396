package core

import (
	"fmt"

	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/telemetry"
)

// AttackConfig parameterizes a BranchScope attack session.
type AttackConfig struct {
	// Search configures randomization-block generation and the §6.2
	// pre-attack search. Search.TargetAddr must be the victim branch
	// address.
	Search SearchConfig
	// MaxCandidates bounds the pre-attack block search.
	MaxCandidates int
	// UseTiming selects rdtscp probing (§8) instead of the
	// branch-misprediction PMC (§7). Timing probes are noisier.
	UseTiming bool
	// TimingCalibrationReps is the number of calibration samples per
	// class for the timing detector. Zero or negative falls back to
	// DefaultTimingCalibrationReps.
	TimingCalibrationReps int
	// Retry configures the resilient read path (ReadBit). The zero
	// value keeps ReadBit single-shot; SpyBit ignores it entirely.
	Retry RetryConfig
	// Degrade arms the health gate that falls back from PMC probing to
	// rdtscp timing probing when PMC readouts turn implausible (see
	// degrade.go). The zero value disables it. Ignored on sessions that
	// already probe with timing (UseTiming).
	Degrade DegradeConfig
	// EpisodeHook, when non-nil, receives one EpisodeObservation per
	// prime–step–probe episode, immediately after the probe. It feeds
	// the leakage estimators' raw-signal (SNR) path; keep it cheap and
	// non-blocking — it runs inside the episode loop.
	EpisodeHook func(EpisodeObservation)
}

// EpisodeObservation is the per-episode raw measurement handed to
// AttackConfig.EpisodeHook: the decoded pattern plus the underlying
// probe signal (first/second probe rdtscp latencies on timing
// sessions, PMC deltas across the two probe branches otherwise).
type EpisodeObservation struct {
	// Pattern is the decoded observation pattern of the episode.
	Pattern Pattern
	// First and Second are the raw per-probe signals: rdtscp latencies
	// when Timing, branch-mispredict PMC deltas (saturating, since a
	// faulty PMC under chaos can read backwards) when not.
	First, Second uint64
	// Timing reports which signal source produced First/Second.
	Timing bool
}

// DefaultTimingCalibrationReps is the documented default calibration
// sample count per class when TimingCalibrationReps is not positive.
const DefaultTimingCalibrationReps = 2000

// Session is a ready-to-use BranchScope attack instance: a spy context, a
// pre-searched randomization block that primes the target PHT entry into
// the strongly-not-taken state, and a probe strategy.
//
// The standard configuration primes SN and probes with two taken
// branches; DecodeBit's dictionary corresponds to it. (On every modelled
// FSM this configuration is unambiguous; in particular it sidesteps the
// Skylake ST/WT indistinguishability, as §6.1 notes the attacker can.)
type Session struct {
	spy      *cpu.Context
	cfg      AttackConfig
	block    *Block
	detector *TimingDetector
	tel      *sessionTel

	// probeRB is the target spy branch with its predictor indexes
	// resolved once at session construction: every probe of the
	// session's lifetime executes this one branch twice.
	probeRB cpu.ResolvedBranch

	// Resilient-read state (see resilient.go): the scratch-address
	// cursor for drift checks and recalibrations, the episode count
	// since the last drift check, and recalibration statistics.
	calCursor    uint64
	sinceCheck   int
	recalibrated int

	// Health-gate state (see degrade.go): probes and implausible-probe
	// faults in the current window, and whether the session has fallen
	// back to timing probing.
	healthProbes int
	healthFaults int
	degraded     bool

	// lastObs carries the raw probe signal from Probe to emitEpisode
	// for the episode hook (see AttackConfig.EpisodeHook).
	lastObs EpisodeObservation
}

// sessionTel caches the per-session telemetry handles (nil when the
// spy's core has no telemetry attached). Episode instrumentation is the
// observable heart of the attack: one span per prime–step–probe episode
// with per-stage children, cycle-cost histograms per stage, and the
// MM/MH/HM/HH pattern distribution the paper's Table 1 decodes.
type sessionTel struct {
	set      *telemetry.Set
	tid      int
	episodes *telemetry.Counter
	patterns [4]*telemetry.Counter // indexed by patternIndex order
	prime    *telemetry.Histogram
	step     *telemetry.Histogram
	probe    *telemetry.Histogram
	episode  *telemetry.Histogram

	// Resilient-read and health-gate counters (resilient.go,
	// degrade.go), resolved once here: a registry lookup hashes the
	// metric name, which is far too expensive for the per-read path.
	retries      *telemetry.Counter
	outliers     *telemetry.Counter
	unknown      *telemetry.Counter
	driftChecks  *telemetry.Counter
	driftRecals  *telemetry.Counter
	degradations *telemetry.Counter
}

// sessionCycleBuckets spans ~64 cycles (a bare probe) to ~2M cycles
// (an episode with heavy noise and SGX world switches).
func sessionCycleBuckets() []uint64 { return telemetry.ExpBuckets(64, 2, 16) }

func newSessionTel(set *telemetry.Set, spy *cpu.Context) *sessionTel {
	t := &sessionTel{
		set:          set,
		tid:          spy.TID(),
		episodes:     set.Counter("core.episodes"),
		prime:        set.Histogram("core.cycles.prime", sessionCycleBuckets()),
		step:         set.Histogram("core.cycles.step", sessionCycleBuckets()),
		probe:        set.Histogram("core.cycles.probe", sessionCycleBuckets()),
		episode:      set.Histogram("core.cycles.episode", sessionCycleBuckets()),
		retries:      set.Counter("core.read.retries"),
		outliers:     set.Counter("core.read.outliers"),
		unknown:      set.Counter("core.read.unknown"),
		driftChecks:  set.Counter("core.timing.drift_checks"),
		driftRecals:  set.Counter("core.timing.drift_recalibrations"),
		degradations: set.Counter("core.probe.degradations"),
	}
	for i, p := range []Pattern{PatternHH, PatternHM, PatternMH, PatternMM} {
		t.patterns[i] = set.Counter("core.patterns." + string(p))
	}
	return t
}

// patternIndex maps a pattern to its counter slot.
func patternIndex(p Pattern) int {
	switch p {
	case PatternHH:
		return 0
	case PatternHM:
		return 1
	case PatternMH:
		return 2
	default:
		return 3
	}
}

// observeEpisode records one episode's metrics and trace spans. The
// timestamps are core clock readings at the stage boundaries.
func (t *sessionTel) observeEpisode(t0, t1, t2, t3 uint64, p Pattern, bit bool) {
	t.episodes.Inc()
	t.patterns[patternIndex(p)].Inc()
	t.prime.Observe(t1 - t0)
	t.step.Observe(t2 - t1)
	t.probe.Observe(t3 - t2)
	t.episode.Observe(t3 - t0)
	t.set.Span(t.tid, "attack", "episode", t0, t3, nil)
	t.set.Span(t.tid, "attack", "prime", t0, t1, nil)
	t.set.Span(t.tid, "attack", "step", t1, t2, nil)
	t.set.Span(t.tid, "attack", "probe", t2, t3, nil)
	t.set.Instant(t.tid, "attack", "decode", t3, map[string]any{
		"pattern": string(p), "bit": bit,
	})
}

// NewSession performs the one-time pre-attack work (block search, and
// timing calibration when UseTiming) and returns an attack session. spy
// is the attacker's hardware context; r drives block generation.
func NewSession(spy *cpu.Context, r *rng.Source, cfg AttackConfig) (*Session, error) {
	if cfg.Search.TargetAddr == 0 {
		return nil, fmt.Errorf("core: AttackConfig.Search.TargetAddr not set")
	}
	cfg.Search = cfg.Search.withDefaults()
	cfg.Degrade = cfg.Degrade.withDefaults()
	block, _, err := FindBlock(spy, r, cfg.Search, StateSN, cfg.MaxCandidates)
	if err != nil {
		return nil, err
	}
	s := &Session{spy: spy, cfg: cfg, block: block}
	s.probeRB = spy.ResolveBranch(cfg.Search.TargetAddr)
	if set := spy.Core().Telemetry(); set != nil {
		s.tel = newSessionTel(set, spy)
	}
	if cfg.UseTiming {
		// Normalize here, not just in CalibrateTiming: the session's
		// recalibration path reuses the value, and a negative
		// misconfiguration must mean "default", never a zero-sample
		// detector.
		if s.cfg.TimingCalibrationReps <= 0 {
			s.cfg.TimingCalibrationReps = DefaultTimingCalibrationReps
		}
		reps := s.cfg.TimingCalibrationReps
		s.detector = CalibrateTiming(spy, cfg.Search.SpyBase+1<<20, reps)
		// Drift checks and recalibrations burn fresh scratch addresses
		// beyond the initial calibration range.
		s.calCursor = cfg.Search.SpyBase + 2<<20
	}
	return s, nil
}

// Block returns the selected randomization block.
func (s *Session) Block() *Block { return s.block }

// Detector returns the calibrated timing detector (nil unless UseTiming).
func (s *Session) Detector() *TimingDetector { return s.detector }

// Prime executes attack stage 1: run the randomization block, forcing
// 1-level prediction for the target branch and leaving its PHT entry in
// the strongly-not-taken state.
func (s *Session) Prime() {
	s.block.Run(s.spy)
}

// Probe executes attack stage 3 and returns the observation pattern. It
// uses the PMC or the timestamp counter per the session configuration —
// or timing regardless of configuration once the health gate has
// degraded the session (see degrade.go).
func (s *Session) Probe() Pattern {
	if s.cfg.UseTiming || s.degraded {
		sample := ProbeTSCResolved(s.spy, &s.probeRB, true)
		s.noteProbe(sample.First, sample.Second, true)
		return MakePattern(s.detector.Miss(sample.First), s.detector.Miss(sample.Second))
	}
	m0, m1, m2 := ProbePMCReadingsResolved(s.spy, &s.probeRB, true)
	s.observePMCHealth(m0, m1, m2)
	s.noteProbe(satSub(m1, m0), satSub(m2, m1), false)
	return MakePattern(m1 > m0, m2 > m1)
}

// noteProbe stashes the raw probe signal of the in-flight episode for
// the episode hook. It only spends work when a hook is installed.
func (s *Session) noteProbe(first, second uint64, timing bool) {
	if s.cfg.EpisodeHook == nil {
		return
	}
	s.lastObs = EpisodeObservation{First: first, Second: second, Timing: timing}
}

// emitEpisode delivers the finished episode to the hook, attaching the
// decoded pattern to the signal noteProbe stashed.
func (s *Session) emitEpisode(p Pattern) {
	if s.cfg.EpisodeHook == nil {
		return
	}
	obs := s.lastObs
	obs.Pattern = p
	s.cfg.EpisodeHook(obs)
}

// satSub is a saturating subtraction: chaos-faulted PMC readouts can
// move backwards, and a wrapped uint64 delta would poison the signal
// statistics.
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Stepper lets the attacker run the victim for an exact number of
// conditional branches — the victim-slowdown capability of the threat
// model (§3). sched.Thread and sgx.Enclave implement it.
type Stepper interface {
	StepBranches(k int) bool
}

// SpyBit performs one full attack episode against a steppable victim:
// prime, let the victim execute exactly one branch, probe, decode. before
// and after, when non-nil, run between the stages (noise injection
// points). It returns the inferred direction of the victim's branch.
//
// With telemetry attached to the spy's core, each episode emits an
// "episode" span with prime/step/probe children and a "decode" instant
// on the spy's trace timeline, and feeds the episode counters, pattern
// distribution and per-stage cycle histograms. The step stage includes
// the surrounding noise-injection callbacks — it is the paper's "window
// in which the victim runs" (§7).
func (s *Session) SpyBit(victim Stepper, before, after func()) bool {
	return DecodeBit(s.episode(victim, before, after))
}

// episode runs one prime–step–probe episode and returns the raw
// observation pattern. SpyBit decodes it directly; ReadBit treats it as
// one vote of a resilient read.
func (s *Session) episode(victim Stepper, before, after func()) Pattern {
	if s.tel == nil {
		s.Prime()
		if before != nil {
			before()
		}
		victim.StepBranches(1)
		if after != nil {
			after()
		}
		p := s.Probe()
		s.emitEpisode(p)
		return p
	}
	clk := s.spy.Core()
	t0 := clk.Clock()
	s.Prime()
	t1 := clk.Clock()
	if before != nil {
		before()
	}
	victim.StepBranches(1)
	if after != nil {
		after()
	}
	t2 := clk.Clock()
	p := s.Probe()
	t3 := clk.Clock()
	s.tel.observeEpisode(t0, t1, t2, t3, p, DecodeBit(p))
	s.emitEpisode(p)
	return p
}
