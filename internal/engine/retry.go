package engine

import (
	"context"
	"errors"
	"fmt"
)

// retryable reports whether a failed attempt is worth another one
// (Runner.MaxAttempts): only a per-attempt timeout
// (context.DeadlineExceeded) is, since rough scheduling is exactly what
// retries exist for — the suite-level counterpart of the attack loop's
// per-bit retries. Nothing else is retried: in a deterministic
// simulation any other failure reproduces, so another attempt only
// burns time, and retrying canceled work is disobedience, not
// resilience.
func retryable(err error) bool {
	return !errors.Is(err, context.Canceled) && errors.Is(err, context.DeadlineExceeded)
}

// attemptSeed derives the seed of one retry attempt from the task's
// standard derived seed: DeriveSeed(taskSeed, "attempt", n) for attempt
// n > 1, so a retry is a genuinely different randomization of the same
// experiment rather than a replay of the exact failing schedule.
// Attempt 1 is the identity: retry-enabled and retry-free runs agree
// whenever no retry fires.
func attemptSeed(taskSeed uint64, attempt int) uint64 {
	if attempt <= 1 {
		return taskSeed
	}
	return DeriveSeed(taskSeed, "attempt", fmt.Sprint(attempt))
}
