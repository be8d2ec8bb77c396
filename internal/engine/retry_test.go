package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// timeoutErr is what an attempt that hit its per-attempt deadline
// returns: the one retryable failure.
var timeoutErr = fmt.Errorf("task: %w", context.DeadlineExceeded)

// flakyTask fails with failErr until the given attempt number, then
// succeeds, recording the seed of every attempt.
func flakyTask(id string, succeedOn int, failErr error, seeds *[]uint64) Task {
	attempt := 0
	return Task{ID: id, Artifact: "T", Description: "flaky", Run: func(ctx context.Context, cfg Config) (Result, error) {
		attempt++
		*seeds = append(*seeds, cfg.Seed)
		if attempt < succeedOn {
			return nil, failErr
		}
		return textResult("recovered"), nil
	}}
}

func TestRetryTransientFailureRecovers(t *testing.T) {
	var seeds []uint64
	r := &Runner{MaxAttempts: 3}
	rep := r.RunTask(context.Background(), flakyTask("flaky", 2, timeoutErr, &seeds), Config{Seed: 9})
	if rep.Err != nil {
		t.Fatalf("retry did not recover: %v", rep.Err)
	}
	if rep.Attempts != 2 || rep.Outcome != "retried-ok" {
		t.Errorf("Attempts=%d Outcome=%q, want 2/retried-ok", rep.Attempts, rep.Outcome)
	}
	taskSeed := DeriveSeed(9, "flaky")
	want := []uint64{taskSeed, DeriveSeed(taskSeed, "attempt", "2")}
	if len(seeds) != 2 || seeds[0] != want[0] || seeds[1] != want[1] {
		t.Errorf("attempt seeds = %v, want %v (identity then derived)", seeds, want)
	}
	if rep.Seed != want[1] {
		t.Errorf("report seed %d does not name the successful attempt's seed %d", rep.Seed, want[1])
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	var seeds []uint64
	r := &Runner{MaxAttempts: 3}
	rep := r.RunTask(context.Background(), flakyTask("doomed", 99, timeoutErr, &seeds), Config{Seed: 9})
	if rep.Err == nil {
		t.Fatal("exhausted task reported success")
	}
	if rep.Attempts != 3 || rep.Outcome != "exhausted" {
		t.Errorf("Attempts=%d Outcome=%q, want 3/exhausted", rep.Attempts, rep.Outcome)
	}
}

func TestRetryPermanentFailuresNotRetried(t *testing.T) {
	for _, c := range []struct {
		name    string
		err     error
		outcome string
	}{
		{"plain", errors.New("deterministic bug"), "error"},
		{"canceled", fmt.Errorf("task: %w", context.Canceled), "canceled"},
	} {
		var seeds []uint64
		r := &Runner{MaxAttempts: 5}
		rep := r.RunTask(context.Background(), flakyTask(c.name, 99, c.err, &seeds), Config{Seed: 1})
		if rep.Attempts != 1 {
			t.Errorf("%s: %d attempts, want 1 (not retryable)", c.name, rep.Attempts)
		}
		if got := rep.Outcome; got != c.outcome {
			t.Errorf("%s: Outcome = %q, want %q", c.name, got, c.outcome)
		}
	}
}

func TestRetryTimeoutErrorIsTransient(t *testing.T) {
	var seeds []uint64
	r := &Runner{MaxAttempts: 2}
	rep := r.RunTask(context.Background(), flakyTask("slow", 2, timeoutErr, &seeds), Config{Seed: 1})
	if rep.Err != nil || rep.Attempts != 2 {
		t.Errorf("per-attempt timeout not retried: attempts=%d err=%v", rep.Attempts, rep.Err)
	}
}

func TestRetryZeroPolicyIsSingleAttempt(t *testing.T) {
	var seeds []uint64
	r := &Runner{}
	rep := r.RunTask(context.Background(), flakyTask("once", 99, timeoutErr, &seeds), Config{Seed: 4})
	if rep.Attempts != 1 {
		t.Errorf("zero policy: attempts=%d, want one attempt", rep.Attempts)
	}
	if rep.Outcome != "timeout" {
		t.Errorf("zero policy Outcome = %q, want timeout (a 1-budget cannot be exhausted)", rep.Outcome)
	}
	if rep.Seed != DeriveSeed(4, "once") {
		t.Error("zero policy changed the task seed")
	}
}

// TestDefaultClassify: the classification is fixed — a per-attempt
// deadline is retryable, anything else, cancellation included, is not.
func TestDefaultClassify(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{context.DeadlineExceeded, true},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), true},
		{fmt.Errorf("wrap: %w", context.Canceled), false},
		{errors.Join(context.Canceled, context.DeadlineExceeded), false},
		{errors.New("plain"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestAttemptSeedIdentityAndDistinctness(t *testing.T) {
	if attemptSeed(7, 1) != 7 || attemptSeed(7, 0) != 7 {
		t.Error("attempt 1 must keep the task seed")
	}
	seen := map[uint64]int{7: 1}
	for n := 2; n < 8; n++ {
		s := attemptSeed(7, n)
		if prev, dup := seen[s]; dup {
			t.Errorf("attemptSeed(7, %d) collides with attempt %d", n, prev)
		}
		seen[s] = n
	}
}
