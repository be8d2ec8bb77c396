package core

// Resilient read path: a real BranchScope attacker does not trust a
// single episode. Preemption can flush the primed PHT entry mid-flight,
// a core migration makes the probed predictor a stranger's, the perf
// subsystem can glitch a counter read, and the §8 timing detector's
// threshold drifts with the machine's clock behavior. The attacker's
// answer (§7, §8) is statistical: repeat the episode, reject
// observations whose signature says "interference", vote, and when the
// vote stays ambiguous, admit it — an Unknown bit is recoverable by
// upper layers (framing, error correction), a silently wrong bit is
// not.

// RetryConfig bounds the resilient read path of Session.ReadBit.
type RetryConfig struct {
	// MaxAttempts is the per-bit episode budget. Values below 1 mean a
	// single attempt: ReadBit degenerates to one episode plus outlier
	// classification.
	MaxAttempts int
	// DriftCheckInterval is how many episodes run between timing-drift
	// self-checks (timing sessions only). Zero selects
	// DefaultDriftCheckInterval; negative disables drift checking.
	DriftCheckInterval int
}

// Drift-check defaults, shared with DESIGN §3.15. The interval trades
// overhead against detection latency: a TSC-jitter window misreads
// every episode until the next check notices, so at interval 16 a
// window is caught within ~16 episodes while the check itself (8
// sample pairs, ~100 instructions) stays well under the cost of a
// single prime–step–probe episode.
const (
	DefaultDriftCheckInterval = 16
	// driftCheckSamples is how many known-outcome branch pairs one
	// drift check measures.
	driftCheckSamples = 8
)

// Reading is the outcome of one resilient bit read. Confidence is the
// winning vote share over all attempted episodes; for an unknown bit it
// scores the best losing candidate, so callers can still rank guesses.
type Reading struct {
	// Bit is the decoded direction. Meaningful only when Known (it
	// holds the leading candidate otherwise).
	Bit bool
	// Known reports whether the vote reached a decisive majority within
	// the attempt budget. An unknown bit is reported as such rather
	// than silently wrong — graceful degradation under interference.
	Known bool
	// Confidence is winner votes / attempts, in (0, 1].
	Confidence float64
	// Attempts is how many episodes the read consumed.
	Attempts int
	// Outliers is how many episodes were rejected as interference
	// signatures rather than counted as votes.
	Outliers int
}

// ReadBit reads one victim bit resiliently: episodes repeat under a
// bounded budget (Retry.MaxAttempts) until one direction holds a strict
// majority of the budget. Probe patterns that cannot result from an
// intact SN-primed episode — HH and HM say the primed entry was not in
// a strong-not-taken state when probed, i.e. the episode was torn by
// preemption, migration or readout corruption — are rejected as
// outliers instead of being decoded into wrong votes. before/after are
// the same injection points SpyBit takes, invoked around every episode.
//
// On timing sessions ReadBit also self-checks the detector every
// DriftCheckInterval episodes against planted known-outcome branches
// and recalibrates when the threshold has drifted (TSC baseline
// shifts). SpyBit never does any of this: the naive loop stays the
// paper's single-episode read.
func (s *Session) ReadBit(victim Stepper, before, after func()) Reading {
	budget := s.cfg.Retry.MaxAttempts
	if budget < 1 {
		budget = 1
	}
	// Strict majority of the full budget: an answer that could still be
	// outvoted by the remaining attempts is not decisive.
	needed := budget/2 + 1
	var taken, notTaken, outliers int
	attempts := 0
	for attempts < budget && taken < needed && notTaken < needed {
		s.maybeDriftCheck()
		switch s.episode(victim, before, after) {
		case PatternMH:
			taken++
		case PatternMM:
			notTaken++
		default: // HH, HM: torn episode, not a vote
			outliers++
		}
		attempts++
	}
	r := Reading{Attempts: attempts, Outliers: outliers}
	switch {
	case taken >= needed:
		r.Bit, r.Known = true, true
		r.Confidence = float64(taken) / float64(attempts)
	case notTaken >= needed:
		r.Bit, r.Known = false, true
		r.Confidence = float64(notTaken) / float64(attempts)
	default:
		// Budget exhausted without a decisive majority: degrade
		// gracefully. Report the leading candidate and its (low)
		// confidence, flagged Unknown.
		r.Bit = taken >= notTaken
		best := taken
		if notTaken > best {
			best = notTaken
		}
		if best > 0 {
			r.Confidence = float64(best) / float64(attempts)
		}
	}
	if s.tel != nil {
		if r.Attempts > 1 {
			s.tel.retries.Add(uint64(r.Attempts - 1))
		}
		if r.Outliers > 0 {
			s.tel.outliers.Add(uint64(r.Outliers))
		}
		if !r.Known {
			s.tel.unknown.Inc()
		}
	}
	return r
}

// Recalibrations returns how many times the session's timing detector
// was recalibrated after drift detection.
func (s *Session) Recalibrations() int { return s.recalibrated }

// maybeDriftCheck runs the periodic timing-drift self-check. PMC
// sessions and disabled intervals are no-ops.
func (s *Session) maybeDriftCheck() {
	if s.detector == nil {
		return
	}
	interval := s.cfg.Retry.DriftCheckInterval
	if interval < 0 {
		return
	}
	if interval == 0 {
		interval = DefaultDriftCheckInterval
	}
	s.sinceCheck++
	if s.sinceCheck < interval {
		return
	}
	s.sinceCheck = 0
	if s.driftDetected() {
		// The calibrated threshold no longer separates the machine's
		// hit and miss latencies (a TSC baseline shift, in chaos
		// terms): rebuild the detector on fresh scratch addresses.
		// Running before the next episode's prime, the extra branches
		// here cannot disturb a primed target entry.
		s.detector = CalibrateTiming(s.spy, s.calCursor, s.cfg.TimingCalibrationReps)
		s.calCursor += uint64(s.cfg.TimingCalibrationReps)*64 + 64
		s.recalibrated++
		if s.tel != nil {
			s.tel.driftRecals.Inc()
		}
	}
}

// driftDetected measures a handful of branches with known prediction
// outcomes (the calibration trick, in miniature) and reports whether
// the current detector misclassifies more than a quarter of them —
// far beyond its calibrated error on a stable machine.
func (s *Session) driftDetected() bool {
	wrong := 0
	for i := 0; i < driftCheckSamples; i++ {
		addr := s.calCursor
		s.calCursor += 64
		rb := s.spy.ResolveBranch(addr)
		for j := 0; j < 4; j++ {
			rb.Execute(true)
		}
		t0 := s.spy.ReadTSC()
		rb.Execute(true)
		hit := s.spy.ReadTSC() - t0
		t0 = s.spy.ReadTSC()
		rb.Execute(false)
		miss := s.spy.ReadTSC() - t0
		if s.detector.Miss(hit) {
			wrong++
		}
		if !s.detector.Miss(miss) {
			wrong++
		}
	}
	if s.tel != nil {
		s.tel.driftChecks.Inc()
	}
	return wrong*2 > driftCheckSamples // > 25% of the 2n classifications
}
