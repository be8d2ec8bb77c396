// Package svc is the multi-tenant campaign job service: the serving
// surface that turns the single-operator CLI stack into a shared
// execution platform. Clients POST branchscope.job/v1 specs — tenant
// ID plus the same result-shaping knobs the CLIs take (seed, quick,
// task list, chaos/retry/breaker/timeout) — and the service validates
// the spec, admits it against per-tenant and global quotas (shedding
// with a structured 429 + Retry-After when a queue is full), and runs
// each job in its own isolated simulator instance on a shared bounded
// engine.Pool with per-tenant fair scheduling.
//
// Determinism is the service's core contract, inherited from the
// engine (PR 2), the campaign journal (PR 5) and the run identity
// (PR 8): a job's report, JSON export, run ID and manifest are
// byte-identical to the same spec run directly via cmd/experiments,
// because both paths derive every task seed from (base seed, task ID)
// and digest the same identity basis. Where a job ran — CLI, service,
// worker fleet — never changes what it produced.
//
// Isolation: each job gets its own engine.Runner, breaker set, retry
// policy, chaos plan (carried through the context as
// experiments.Overrides, never through process state), deadline
// context and panic recovery, so one tenant's pathological spec — a
// chaos storm, an exhausted retry budget, a watchdog-stuck task — can
// never stall or corrupt another tenant's results. The shared pool uses caller-runs overflow (see
// engine.Pool), so a saturated pool degrades parallelism, never
// liveness: every job goroutine always makes progress on its own.
//
// Jobs stream per-task progress and row results as branchscope.ledger/v1
// JSONL (GET /jobs/{id}/stream), archive through runstore.Archiver
// under <dir>/<tenant>/<run-id>/, and survive a service restart via a
// CRC-framed journal: queued jobs are re-enqueued, jobs that were
// running settle as failed with an explicit reason, finished jobs keep
// their settled state. See DESIGN §3.21.
package svc

import (
	"errors"
	"fmt"
	"time"

	"branchscope/internal/cliutil"
	"branchscope/internal/engine"
)

// SpecSchema versions job submissions; the service refuses others.
const SpecSchema = "branchscope.job/v1"

// Spec is one submitted campaign job: the tenant it belongs to plus
// exactly the result-shaping knobs runstore.Identity digests for a CLI
// run. Execution-shape knobs (-parallel, sink paths, worker fleets)
// deliberately have no spec fields: they belong to the service, and
// the run identity guarantees they cannot change the result.
type Spec struct {
	Schema string `json:"schema"`
	// Tenant names the submitting client. It keys quotas, fair
	// scheduling and the archive subdirectory, so it must be a safe
	// path component (letters, digits, '.', '_', '-').
	Tenant string `json:"tenant"`
	// Program must match the serving program ("experiments"); a spec
	// for a foreign program is refused like a foreign fabric
	// assignment.
	Program string `json:"program,omitempty"`
	// BaseSeed is the suite seed task seeds derive from (0 means the
	// CLI default, 1).
	BaseSeed uint64 `json:"base_seed,omitempty"`
	Quick    bool   `json:"quick,omitempty"`
	// Tasks selects experiment IDs in order; empty runs the full
	// registry, exactly like a bare CLI invocation.
	Tasks []string `json:"tasks,omitempty"`
	// Chaos/ChaosSeed/Retry/Breaker mirror the CLI flags of the same
	// names (see cliutil.Flags); they shape results and therefore the
	// run identity.
	Chaos     string `json:"chaos,omitempty"`
	ChaosSeed uint64 `json:"chaos_seed,omitempty"`
	Retry     int    `json:"retry,omitempty"`
	Breaker   int    `json:"breaker,omitempty"`
	// TimeoutMS bounds each task's wall time (the CLI's -timeout);
	// part of the identity like the flag.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// DeadlineMS bounds the whole job's wall time. Execution shape:
	// it decides whether the job finishes, never what finished tasks
	// produced, so it stays out of the identity.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Seed resolves the spec's base seed with the CLI's default.
func (sp Spec) Seed() uint64 {
	if sp.BaseSeed == 0 {
		return 1
	}
	return sp.BaseSeed
}

// Timeout returns the per-task timeout as a duration (0 = unbounded).
func (sp Spec) Timeout() time.Duration { return time.Duration(sp.TimeoutMS) * time.Millisecond }

// Deadline returns the per-job deadline as a duration (0 = unbounded).
func (sp Spec) Deadline() time.Duration { return time.Duration(sp.DeadlineMS) * time.Millisecond }

// Flags assembles the cliutil flag view of the spec's result-shaping
// knobs, so identity derivation — and the host's per-job chaos/retry
// isolation — goes through the exact code path the CLIs use: RunID
// parity with cmd/experiments is a construction, not a convention.
func (sp Spec) Flags() cliutil.Flags {
	return cliutil.Flags{
		Chaos:     sp.Chaos,
		ChaosSeed: sp.ChaosSeed,
		Retry:     sp.Retry,
		Breaker:   sp.Breaker,
	}
}

// Plan is the invocation a direct CLI run of the spec executes over
// the resolved tasks: the identity, ledger records and archive of the
// job derive from it exactly as cmd/experiments derives its own.
func (sp Spec) Plan(tasks []engine.Task) cliutil.Plan {
	return cliutil.Plan{
		Program: sp.Program,
		Seed:    sp.Seed(),
		Quick:   sp.Quick,
		Tasks:   tasks,
		Timeout: sp.Timeout(),
	}
}

// validTenant reports whether the tenant name is a safe archive path
// component.
func validTenant(t string) bool {
	if t == "" || len(t) > 64 {
		return false
	}
	for _, r := range t {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return t != "." && t != ".."
}

// Validate checks the spec against the serving program. Chaos plans
// are parsed (via the identity derivation) so a malformed plan is a
// 400 at submit, not a failed job later.
func (sp Spec) Validate(program string) error {
	if sp.Schema != SpecSchema {
		return fmt.Errorf("svc: spec schema %q, this service speaks %q", sp.Schema, SpecSchema)
	}
	if !validTenant(sp.Tenant) {
		return errors.New("svc: tenant must be 1-64 characters of [a-zA-Z0-9._-]")
	}
	if sp.Program != "" && sp.Program != program {
		return fmt.Errorf("svc: spec is for program %q, this service runs %q", sp.Program, program)
	}
	if sp.Retry < 0 || sp.Breaker < 0 {
		return errors.New("svc: retry and breaker must be >= 0")
	}
	if sp.TimeoutMS < 0 || sp.DeadlineMS < 0 {
		return errors.New("svc: timeout_ms and deadline_ms must be >= 0")
	}
	if _, err := sp.Flags().ChaosPlan(sp.Seed()); err != nil {
		return fmt.Errorf("svc: %w", err)
	}
	return nil
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// settledState reports whether a state is terminal.
func settledState(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}
