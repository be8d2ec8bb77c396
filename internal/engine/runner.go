package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Task is one schedulable experiment.
type Task struct {
	// ID is the short name ("fig2", "table2"); it keys seed derivation.
	ID string
	// Artifact and Description annotate reports and exports.
	Artifact    string
	Description string
	// Family groups tasks for circuit breaking: repeated permanent
	// failures in one family open that family's breaker and skip its
	// remaining tasks (see BreakerSet). Empty means the task is its own
	// family — an isolated failure can never short-circuit anything else.
	Family string
	// Run executes the task. The config's Seed is already derived for
	// this task; Run must treat ctx as the cancellation signal and
	// return promptly once it is done.
	Run func(ctx context.Context, cfg Config) (Result, error)
}

// family resolves the breaker grouping: an explicit Family, or the
// task's own ID (a family of one).
func (t Task) family() string {
	if t.Family != "" {
		return t.Family
	}
	return t.ID
}

// BreakerFamily exposes the resolved breaker grouping for schedulers
// outside the package (the fabric coordinator admits tasks against a
// shared BreakerSet before dispatching them to workers, and must group
// exactly as RunTask would).
func (t Task) BreakerFamily() string { return t.family() }

// SkippedBreakerReport builds the report RunTask produces for a task
// short-circuited by an open breaker. Exported because the fabric
// coordinator settles admission-refused tasks without a runner, and
// the report bytes must match a single-process run's exactly.
func SkippedBreakerReport(t Task, seed uint64, runID string) Report {
	return Report{
		Task: t, Seed: seed, RunID: runID,
		SkippedBreaker: true,
		Err:            fmt.Errorf("engine: task %s: %w (family %q)", t.ID, ErrBreakerOpen, t.family()),
	}
}

// Report is the outcome of one task run.
type Report struct {
	Task Task
	// Seed is the derived seed the task actually ran with.
	Seed uint64
	// Result is nil when Err != nil.
	Result Result
	// Err is the task's failure: an error return, a recovered panic,
	// a timeout, or cancellation. The rest of the suite is unaffected.
	Err error
	// Wall is the task's wall-clock duration — the one deliberately
	// nondeterministic field (excluded from deterministic exports).
	Wall time.Duration
	// Panicked marks Err as a recovered panic.
	Panicked bool
	// Attempts is how many times the task ran (1 without a retry
	// policy, or when the first attempt settled it).
	Attempts int
	// Backoff is the total simulated backoff delay charged between
	// attempts.
	Backoff time.Duration
	// Exhausted marks a task that consumed the full retry budget: every
	// attempt up to MaxAttempts timed out.
	Exhausted bool
	// Stuck marks a task that exceeded the runner's soft Watchdog
	// deadline while running. Unlike a timeout it is advisory: the task
	// kept running (and may well have finished), so Stuck can be true on
	// a successful report. Excluded from deterministic exports.
	Stuck bool
	// SkippedBreaker marks a task that never ran because its family's
	// circuit breaker was open (see BreakerSet); Err carries
	// ErrBreakerOpen.
	SkippedBreaker bool
	// Replayed marks a report reconstructed from a campaign journal
	// instead of a fresh run (see internal/campaign): Result renders the
	// checkpointed bytes and Wall is zero.
	Replayed bool
	// RunID is the run's causal identity (see internal/runstore),
	// stamped from Runner.RunID so every observer hook can join the
	// report to its archive. Empty when the runner has no identity.
	RunID string
}

// Runner executes tasks under the engine's scheduling policy.
type Runner struct {
	// Pool bounds suite-level (and, via the context, experiment-
	// internal) parallelism. nil runs sequentially.
	Pool *Pool
	// Timeout bounds each task's wall time; 0 means unbounded. A task
	// exceeding it is reported as failed. Its goroutine is signalled
	// through context cancellation and abandoned if it ignores the
	// signal, so even a non-cooperative task cannot stall the suite.
	Timeout time.Duration
	// OnStart, when non-nil, observes each task just before its Run is
	// invoked, with the derived seed it will run with (start order,
	// concurrently under parallel execution) — progress reporting, not
	// part of the deterministic output.
	OnStart func(t Task, seed uint64)
	// OnDone, when non-nil, observes each report as its task finishes
	// (completion order, concurrently under parallel execution) —
	// progress reporting, not part of the deterministic output.
	OnDone func(Report)
	// Retry re-runs tasks that hit the per-attempt Timeout with fresh
	// derived seeds and capped backoff. The zero policy disables
	// retries.
	Retry RetryPolicy
	// Watchdog is the soft per-task deadline: a task still running past
	// it is marked Stuck and reported through OnStuck, but — unlike
	// Timeout — keeps running. 0 disables the watchdog. With retries the
	// deadline covers the whole attempt loop, so a task stuck in retry
	// churn is flagged too.
	Watchdog time.Duration
	// OnStuck, when non-nil, observes each task the moment it exceeds
	// the Watchdog deadline (from the watchdog's timer goroutine) —
	// progress reporting, not part of the deterministic output.
	OnStuck func(t Task, seed uint64)
	// Breakers, when non-nil, short-circuits task families that keep
	// failing permanently (see BreakerSet). nil disables circuit
	// breaking.
	Breakers *BreakerSet
	// RunID, when set, is stamped into every Report so downstream
	// observers (ledger, archive) can join outcomes to a run identity.
	RunID string
}

// RunTask executes one task with the runner's timeout, panic recovery,
// per-task seed derivation, and — under a retry policy — re-runs of
// timed-out attempts on per-attempt derived seeds. The timeout applies
// per attempt; a retried task may consume up to MaxAttempts × Timeout.
func (r *Runner) RunTask(ctx context.Context, t Task, cfg Config) Report {
	ctx = WithPool(ctx, r.Pool)
	taskSeed := DeriveSeed(cfg.Seed, t.ID)
	rep := Report{Task: t, Seed: taskSeed, RunID: r.RunID}

	if !r.Breakers.Admit(t.family()) {
		// The family's breaker is open: don't even start the task (no
		// OnStart), but observers must still see it finish.
		rep = SkippedBreakerReport(t, taskSeed, r.RunID)
		if r.OnDone != nil {
			r.OnDone(rep)
		}
		return rep
	}

	if r.OnStart != nil {
		r.OnStart(t, taskSeed)
	}
	var stuck atomic.Bool
	if r.Watchdog > 0 {
		w := time.AfterFunc(r.Watchdog, func() {
			stuck.Store(true)
			if r.OnStuck != nil {
				r.OnStuck(t, taskSeed)
			}
		})
		defer w.Stop()
	}
	start := time.Now()
	for attempt := 1; ; attempt++ {
		cfg.Seed = attemptSeed(taskSeed, attempt)
		rep.Seed = cfg.Seed
		rep.Attempts = attempt
		rep.Result, rep.Err, rep.Panicked = r.attempt(ctx, t, cfg)
		if rep.Err == nil || rep.Panicked {
			break
		}
		if ctx.Err() != nil || !retryable(rep.Err) {
			break
		}
		if attempt >= r.Retry.max() {
			// A timeout that survived the whole budget — only a
			// real budget can be exhausted.
			rep.Exhausted = r.Retry.max() > 1
			break
		}
		rep.Backoff += r.Retry.backoffFor(attempt)
	}
	rep.Wall = time.Since(start)
	rep.Stuck = stuck.Load()
	if rep.Err != nil {
		rep.Result = nil
	}
	r.Breakers.Observe(t.family(), rep.Outcome())
	if r.OnDone != nil {
		r.OnDone(rep)
	}
	return rep
}

// attempt runs the task body once under the per-attempt timeout with
// panic isolation.
func (r *Runner) attempt(ctx context.Context, t Task, cfg Config) (Result, error, bool) {
	cancel := func() {}
	if r.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
	}
	defer cancel()

	type outcome struct {
		res      Result
		err      error
		panicked bool
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			if p := recover(); p != nil {
				o = outcome{
					err:      fmt.Errorf("engine: task %s panicked: %v\n%s", t.ID, p, debug.Stack()),
					panicked: true,
				}
			}
			done <- o
		}()
		o.res, o.err = t.Run(ctx, cfg)
	}()

	select {
	case o := <-done:
		return o.res, o.err, o.panicked
	case <-ctx.Done():
		// The task ignored cancellation past the deadline; abandon its
		// goroutine and report the timeout.
		return nil, fmt.Errorf("engine: task %s: %w", t.ID, ctx.Err()), false
	}
}

// RunSuite executes tasks on the runner's pool and returns one report
// per task in task order, regardless of completion order. Errors are
// per-report; the suite itself always completes. Tasks that never start
// because ctx was canceled are reported as failed with the
// cancellation error.
func (r *Runner) RunSuite(ctx context.Context, tasks []Task, cfg Config) []Report {
	reports, _ := Map(WithPool(ctx, r.Pool), len(tasks), func(i int) (Report, error) {
		return r.RunTask(ctx, tasks[i], cfg), nil
	})
	for i := range reports {
		if reports[i].Task.Run == nil { // zero value: Map skipped it on cancellation
			err := ctx.Err()
			if err == nil {
				err = context.Canceled
			}
			reports[i] = Report{
				Task:  tasks[i],
				Seed:  DeriveSeed(cfg.Seed, tasks[i].ID),
				Err:   fmt.Errorf("engine: task %s: %w", tasks[i].ID, err),
				RunID: r.RunID,
			}
			// Tasks skipped by cancellation never reach RunTask, but
			// observers (progress, ledger) must still see them finish.
			if r.OnDone != nil {
				r.OnDone(reports[i])
			}
		}
	}
	return reports
}

// Outcome classifies the report for ledgers and structured logs:
// "ok", "retried-ok" (success that needed more than one attempt),
// "replayed" (reconstructed from a campaign journal, not re-run),
// "skipped-open-breaker" (never ran: the family's circuit breaker was
// open), "panic", "exhausted" (every attempt of the whole retry budget
// timed out), "timeout", "canceled" or "error". Timeout and
// cancellation are deliberately distinct outcomes: a timeout is the
// task's own budget expiring (actionable per task), a cancellation is
// the operator or a parent tearing the suite down (not the task's
// fault).
func (r Report) Outcome() string {
	switch {
	case r.SkippedBreaker:
		return "skipped-open-breaker"
	case r.Replayed:
		return "replayed"
	case r.Err == nil && r.Attempts > 1:
		return "retried-ok"
	case r.Err == nil:
		return "ok"
	case r.Panicked:
		return "panic"
	case r.Exhausted:
		return "exhausted"
	case errors.Is(r.Err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(r.Err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// Failed counts reports with errors.
func Failed(reports []Report) int {
	n := 0
	for _, rep := range reports {
		if rep.Err != nil {
			n++
		}
	}
	return n
}

// FormatText renders reports in the suite's paper-layout text form —
// exactly what cmd/experiments prints to stdout. The rendering contains
// no wall-clock times, so it is byte-identical for the same base seed
// at any parallelism level.
func FormatText(w io.Writer, reports []Report) {
	for _, rep := range reports {
		fmt.Fprintf(w, "=== %s (%s): %s ===\n", rep.Task.ID, rep.Task.Artifact, rep.Task.Description)
		if rep.Err != nil {
			fmt.Fprintf(w, "!!! %s failed: %v\n", rep.Task.ID, rep.Err)
		} else {
			fmt.Fprint(w, rep.Result)
		}
		fmt.Fprintf(w, "--- %s done ---\n\n", rep.Task.ID)
	}
}

// ExportMeta annotates a WriteJSON export.
type ExportMeta struct {
	// BaseSeed is the suite's base seed (tasks run on derived seeds).
	BaseSeed uint64
	// Quick records the scale the suite ran at.
	Quick bool
	// RunID, when set, stamps the export with the run's causal
	// identity (see internal/runstore). Omitted from the JSON when
	// empty, so exports without an identity keep their legacy shape.
	RunID string
}

// WriteJSON writes reports as the structured export consumed by
// downstream tooling. Schema (stable key order):
//
//	{
//	  "schema": "branchscope.experiments/v1",
//	  "run_id": <string>,        // causal run identity; omitted when unset
//	  "base_seed": <uint>,       // suite base seed
//	  "quick": <bool>,           // test-scale configurations?
//	  "experiments": [
//	    {
//	      "id": <string>,        // registry ID ("fig2", "table2", ...)
//	      "artifact": <string>,  // paper table/figure
//	      "description": <string>,
//	      "seed": <uint>,        // derived seed the task ran with
//	      "error": <string>,     // "" on success
//	      "rows": [ {<experiment-specific ordered keys>}, ... ],
//	      "wall_seconds": <float> // nondeterministic; 0 in golden tests
//	    }, ...
//	  ]
//	}
//
// Everything except wall_seconds is deterministic per base seed.
func WriteJSON(w io.Writer, meta ExportMeta, reports []Report) error {
	type expJSON struct {
		ID          string  `json:"id"`
		Artifact    string  `json:"artifact"`
		Description string  `json:"description"`
		Seed        uint64  `json:"seed"`
		Error       string  `json:"error"`
		Rows        []Row   `json:"rows"`
		WallSeconds float64 `json:"wall_seconds"`
	}
	type exportJSON struct {
		Schema      string    `json:"schema"`
		RunID       string    `json:"run_id,omitempty"`
		BaseSeed    uint64    `json:"base_seed"`
		Quick       bool      `json:"quick"`
		Experiments []expJSON `json:"experiments"`
	}
	out := exportJSON{
		Schema:      "branchscope.experiments/v1",
		RunID:       meta.RunID,
		BaseSeed:    meta.BaseSeed,
		Quick:       meta.Quick,
		Experiments: make([]expJSON, 0, len(reports)),
	}
	for _, rep := range reports {
		e := expJSON{
			ID:          rep.Task.ID,
			Artifact:    rep.Task.Artifact,
			Description: rep.Task.Description,
			Seed:        rep.Seed,
			Rows:        []Row{},
			WallSeconds: rep.Wall.Seconds(),
		}
		if rep.Err != nil {
			e.Error = rep.Err.Error()
		} else {
			e.Rows = rep.Result.Rows()
		}
		out.Experiments = append(out.Experiments, e)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
