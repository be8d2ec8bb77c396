package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerOpensAndSkips pins the circuit-breaker lifecycle: after
// the threshold of consecutive permanent failures in one family, the
// family's remaining tasks are skipped with ErrBreakerOpen and the
// distinct "skipped-open-breaker" outcome, while other families keep
// running.
func TestBreakerOpensAndSkips(t *testing.T) {
	boom := errors.New("systematic failure")
	fail := func(ctx context.Context, cfg Config) (Result, error) { return nil, boom }
	ok := func(ctx context.Context, cfg Config) (Result, error) { return textResult("fine"), nil }
	tasks := []Task{
		{ID: "a1", Family: "bad", Run: fail},
		{ID: "a2", Family: "bad", Run: fail},
		{ID: "a3", Family: "bad", Run: fail}, // never runs: breaker opened at 2
		{ID: "b1", Family: "good", Run: ok},  // unaffected family
	}
	var ran atomic.Int32
	for i := range tasks {
		inner := tasks[i].Run
		tasks[i].Run = func(ctx context.Context, cfg Config) (Result, error) {
			ran.Add(1)
			return inner(ctx, cfg)
		}
	}
	r := &Runner{Breakers: NewBreakerSet(2)}
	reports := r.RunSuite(context.Background(), tasks, Config{Seed: 1})

	if got := ran.Load(); got != 3 {
		t.Errorf("ran %d task bodies, want 3 (a3 skipped)", got)
	}
	if o := reports[2].Outcome(); o != "skipped-open-breaker" {
		t.Errorf("a3 outcome = %q, want skipped-open-breaker", o)
	}
	if !errors.Is(reports[2].Err, ErrBreakerOpen) {
		t.Errorf("a3 err = %v, want ErrBreakerOpen", reports[2].Err)
	}
	if !reports[2].SkippedBreaker {
		t.Error("a3 report not marked SkippedBreaker")
	}
	if reports[3].Err != nil {
		t.Errorf("good-family task failed: %v", reports[3].Err)
	}

	bs := r.Breakers.Status()
	if len(bs) != 1 || bs[0].Family != "bad" || bs[0].State != "open" || bs[0].Skipped != 1 {
		t.Errorf("breaker status = %+v, want one open 'bad' family with 1 skip", bs)
	}
	if !r.Breakers.AnyOpen() {
		t.Error("AnyOpen false with an open breaker")
	}
}

// TestBreakerResetOnSuccess: a success between failures resets the
// consecutive count, so intermittent failures never open the breaker.
func TestBreakerResetOnSuccess(t *testing.T) {
	b := NewBreakerSet(2)
	b.Observe("f", "error")
	b.Observe("f", "ok") // resets
	b.Observe("f", "error")
	if !b.Admit("f") {
		t.Error("breaker opened despite an interleaved success")
	}
	// Timeouts and cancellations are neutral: not the family's fault.
	b.Observe("f", "timeout")
	b.Observe("f", "canceled")
	if !b.Admit("f") {
		t.Error("neutral outcomes moved the breaker")
	}
	b.Observe("f", "panic")
	if b.Admit("f") {
		t.Error("breaker still closed after threshold consecutive permanent failures")
	}
}

// TestNilBreakerSetIsNoop: a nil set admits everything — the default
// when -breaker is off.
func TestNilBreakerSetIsNoop(t *testing.T) {
	var b *BreakerSet
	if !b.Admit("x") || b.AnyOpen() || b.Status() != nil {
		t.Error("nil BreakerSet is not a transparent no-op")
	}
	b.Observe("x", "error") // must not panic
	if NewBreakerSet(0) != nil {
		t.Error("NewBreakerSet(0) should disable breaking (nil set)")
	}
}

// TestWatchdogMarksStuck: a task running past the soft deadline is
// flagged Stuck and reported through OnStuck, but still completes and
// succeeds — the distinction from Timeout.
func TestWatchdogMarksStuck(t *testing.T) {
	var stuckID atomic.Value
	release := make(chan struct{})
	r := &Runner{
		Watchdog: time.Millisecond,
		OnStuck: func(task Task, seed uint64) {
			stuckID.Store(task.ID)
			close(release)
		},
	}
	rep := r.RunTask(context.Background(), Task{ID: "slow", Run: func(ctx context.Context, cfg Config) (Result, error) {
		<-release // holds until the watchdog fires
		return textResult("finished anyway"), nil
	}}, Config{Seed: 1})

	if rep.Err != nil {
		t.Fatalf("stuck task should still succeed, got %v", rep.Err)
	}
	if !rep.Stuck {
		t.Error("report not marked Stuck")
	}
	if got, _ := stuckID.Load().(string); got != "slow" {
		t.Errorf("OnStuck saw %q, want slow", got)
	}
	if o := rep.Outcome(); o != "ok" {
		t.Errorf("outcome = %q; Stuck is advisory and must not change it", o)
	}

	// A fast task never trips the watchdog.
	rep = r.RunTask(context.Background(), Task{ID: "fast", Run: func(ctx context.Context, cfg Config) (Result, error) {
		return textResult("done"), nil
	}}, Config{Seed: 1})
	if rep.Stuck {
		t.Error("fast task marked Stuck")
	}
}

// TestRetryDoesNotResurrectCanceledTask pins the RetryPolicy × timeout
// interaction: when the parent context is canceled mid-task, the retry
// budget must not resurrect the task — one attempt, outcome canceled,
// no Exhausted.
func TestRetryDoesNotResurrectCanceledTask(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var attempts atomic.Int32
	r := &Runner{
		Retry: RetryPolicy{MaxAttempts: 5},
	}
	rep := r.RunTask(ctx, Task{ID: "dying", Run: func(ctx context.Context, cfg Config) (Result, error) {
		attempts.Add(1)
		cancel() // the parent run is being torn down
		// A retryable error: only the ctx.Err() guard can stop the loop.
		return nil, context.DeadlineExceeded
	}}, Config{Seed: 1})

	if got := attempts.Load(); got != 1 {
		t.Errorf("task ran %d attempts after parent cancellation, want 1", got)
	}
	if rep.Attempts != 1 {
		t.Errorf("report.Attempts = %d, want 1", rep.Attempts)
	}
	if o := rep.Outcome(); o != "canceled" {
		t.Errorf("outcome = %q, want canceled", o)
	}
	if rep.Exhausted {
		t.Error("canceled task marked Exhausted: the budget was never consumed")
	}
}

// TestRetryTimeoutStillRetriesButCancellationWins: a per-attempt
// timeout is transient (the next attempt gets a fresh deadline), but
// parent cancellation is terminal even under the same policy.
func TestRetryTimeoutStillRetriesButCancellationWins(t *testing.T) {
	var attempts atomic.Int32
	r := &Runner{
		Timeout: 5 * time.Millisecond,
		Retry:   RetryPolicy{MaxAttempts: 3},
	}
	rep := r.RunTask(context.Background(), Task{ID: "sleepy", Run: func(ctx context.Context, cfg Config) (Result, error) {
		attempts.Add(1)
		<-ctx.Done() // exceed the per-attempt deadline every time
		return nil, ctx.Err()
	}}, Config{Seed: 1})
	if got := attempts.Load(); got != 3 {
		t.Errorf("per-attempt timeouts consumed %d attempts, want the full budget of 3", got)
	}
	if !rep.Exhausted {
		t.Errorf("report not marked Exhausted: %+v", rep)
	}
	if o := rep.Outcome(); o != "exhausted" {
		t.Errorf("outcome = %q, want exhausted", o)
	}
	if !strings.Contains(rep.Err.Error(), "deadline") {
		t.Errorf("err = %v, want a deadline error", rep.Err)
	}
}
