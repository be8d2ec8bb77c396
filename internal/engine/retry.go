package engine

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// RetryPolicy makes RunTask re-run tasks whose attempt hit its
// per-attempt deadline (Runner.Timeout): the suite-level counterpart of
// the attack loop's per-bit retries. Nothing else is retried — in a
// deterministic simulation any other failure reproduces, so another
// attempt only burns time.
//
// Every attempt runs with a distinct derived seed
// (DeriveSeed(taskSeed, "attempt", n) for attempt n > 1), so a retry is
// a genuinely different randomization of the same experiment rather
// than a replay of the exact failing schedule; attempt 1 keeps the
// task's standard derived seed, so enabling a policy changes nothing
// for tasks that succeed first try.
type RetryPolicy struct {
	// MaxAttempts bounds the total runs of one task. Values <= 1
	// disable retries (the zero policy is a no-op).
	MaxAttempts int
	// Backoff is the base delay charged before the second attempt; it
	// doubles per subsequent attempt, capped at 16*Backoff. The delay
	// is simulated: accumulated into Report.Backoff for ledgers and
	// logs but not slept, keeping suite runs deterministic and fast.
	Backoff time.Duration
}

// max returns the effective attempt bound.
func (p RetryPolicy) max() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoffFor returns the capped delay charged after the given
// (1-based, failed) attempt.
func (p RetryPolicy) backoffFor(attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	lim := 16 * p.Backoff
	d := p.Backoff
	for i := 1; i < attempt && d < lim; i++ {
		d *= 2
	}
	if d > lim {
		d = lim
	}
	return d
}

// retryable reports whether a failed attempt is worth another one: only
// a per-attempt timeout (context.DeadlineExceeded) is, since rough
// scheduling is exactly what retries exist for. context.Canceled never
// is — retrying canceled work is disobedience, not resilience.
func retryable(err error) bool {
	return !errors.Is(err, context.Canceled) && errors.Is(err, context.DeadlineExceeded)
}

// attemptSeed derives the seed of one retry attempt from the task's
// standard derived seed. Attempt 1 is the identity: retry-enabled and
// retry-free runs agree whenever no retry fires.
func attemptSeed(taskSeed uint64, attempt int) uint64 {
	if attempt <= 1 {
		return taskSeed
	}
	return DeriveSeed(taskSeed, "attempt", fmt.Sprint(attempt))
}
