package cliutil

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"branchscope/internal/campaign"
	"branchscope/internal/engine"
	"branchscope/internal/experiments"
	"branchscope/internal/fabric"
	"branchscope/internal/obs"
	"branchscope/internal/runstore"
	"branchscope/internal/telemetry"
)

// Plan is one invocation: the tasks a program runs and the knobs that
// shape their results. The CLIs build one from their flags and hand it
// to Session.Execute; the campaign job service builds one per job spec.
// Both derive the run identity, ledger records and archive through the
// plan's methods, so a job and the equivalent direct run produce the
// same bytes by construction.
type Plan struct {
	// Program names the invocation family ("experiments", ...).
	Program string
	// Seed is the root seed task seeds derive from.
	Seed  uint64
	Quick bool
	// Tasks are the tasks to run, in report order. A -worker serves
	// assignments for any of them instead.
	Tasks []engine.Task
	// Config holds the program's own result-shaping knobs; they join
	// the shared flags' knobs (Flags.IdentityConfig) in the identity.
	Config map[string]any
	// LedgerConfig is the configuration every ledger record carries.
	LedgerConfig map[string]any
	// Pool bounds parallelism (nil runs sequentially); Timeout bounds
	// each task's wall time and is part of the identity when set.
	Pool    *engine.Pool
	Timeout time.Duration
	// Root marks a program that runs one root task on the root seed
	// (branchscope, phtmap): its records carry the root seed, which is
	// the seed the task actually runs with, and its archived report is
	// the bare result text rather than the suite layout. Its registry
	// is its one task's, so it gets no per-task wall-time gauge and its
	// metrics stay seed-stable.
	Root bool
	// Files are program-specific sink files (artifact kind → path) the
	// run archive copies at Close, like the session's own sinks.
	Files map[string]string
}

// Identity derives the plan's causal run identity under the shared
// flags f: the shared result-shaping knobs, the program's, and the
// per-task timeout.
func (p Plan) Identity(f Flags) (runstore.Identity, error) {
	cfg, err := f.IdentityConfig(p.Seed)
	if err != nil {
		return runstore.Identity{}, err
	}
	maps.Copy(cfg, p.Config)
	if p.Timeout > 0 {
		cfg["timeout"] = p.Timeout.String()
	}
	ids := make([]string, len(p.Tasks))
	for i, t := range p.Tasks {
		ids[i] = t.ID
	}
	return runstore.Identity{Program: p.Program, BaseSeed: p.Seed, Quick: p.Quick, Tasks: ids, Config: cfg}, nil
}

// Runner builds the plan's engine runner from the shared flags f: the
// pool, per-task timeout, -retry's attempt budget for timed-out tasks,
// watchdog and circuit breakers. Callers add the observer hooks.
func (p Plan) Runner(f Flags) *engine.Runner {
	return &engine.Runner{
		Pool:        p.Pool,
		Timeout:     p.Timeout,
		MaxAttempts: f.Retry,
		Watchdog:    f.Watchdog,
		Breakers:    f.Breakers(),
	}
}

// settled returns rep as the plan records it. A root task runs once on
// the root seed whichever process ran it, so its report carries that
// seed and no attempt or replay marks — a run merged from a fabric
// worker records exactly what a local run does.
func (p Plan) settled(rep engine.Report) engine.Report {
	if p.Root {
		rep.Seed, rep.Attempts, rep.Replayed = p.Seed, 0, false
	}
	return rep
}

// observed is the outcome observers (the ledger, /statusz, progress
// logs) show for a settled task: "replayed" for a report rebuilt from
// a journal or a fabric worker's record, its stored Outcome otherwise.
func observed(rep engine.Report) string {
	if rep.Replayed {
		return "replayed"
	}
	return rep.Outcome
}

// Record renders one settled task as its branchscope.ledger/v1 record
// with the task's metrics delta (nil when none was attributed).
func (p Plan) Record(rep engine.Report, delta *telemetry.Snapshot) obs.LedgerRecord {
	rec := obs.LedgerRecord{
		Program:  p.Program,
		ID:       rep.Task.ID,
		Artifact: rep.Task.Artifact,
		Config:   p.LedgerConfig,
		BaseSeed: p.Seed,
		Seed:     rep.Seed,
		Outcome:  observed(rep),
		// WallSeconds is the one nondeterministic ledger field.
		WallSeconds:  rep.Wall.Seconds(),
		MetricsDelta: delta,
		Leakage:      obs.LeakageFields(delta),
	}
	if rep.Err != nil {
		rec.Error = rep.Err.Error()
	} else {
		rec.ResultDigest = obs.Digest(rep.Result.String())
	}
	return rec
}

// Settle records a finished run on its archive: every task's outcome,
// each tripped circuit breaker, and the report and export rendered over
// wall-zeroed reports — wall time is the one nondeterministic report
// field, so the archived bytes are identical at any -parallel, across
// crash+resume, over fabric workers and via the job service. A failed
// root task has no result text to archive.
func (p Plan) Settle(arc *runstore.Archiver, reports []engine.Report, breakers *engine.BreakerSet) error {
	if arc == nil {
		return nil
	}
	zeroed := make([]engine.Report, len(reports))
	for i, rep := range reports {
		rep.Wall = 0
		zeroed[i] = rep
		o := runstore.TaskOutcome{ID: rep.Task.ID, Seed: rep.Seed, Outcome: rep.Outcome, Attempts: rep.Attempts}
		if rep.Err != nil {
			o.Error = rep.Err.Error()
		}
		arc.Record(o)
	}
	var sums []runstore.BreakerSummary
	for _, b := range breakers.Status() {
		if b.State != "closed" || b.Skipped > 0 {
			sums = append(sums, runstore.BreakerSummary{Family: b.Family, State: b.State, Skipped: b.Skipped})
		}
	}
	arc.SetBreakers(sums)

	var report bytes.Buffer
	switch {
	case !p.Root:
		engine.FormatText(&report, zeroed)
	case engine.Failed(zeroed) > 0:
		return nil
	default:
		report.WriteString(zeroed[0].Result.String())
	}
	arc.AddBlob("report", report.Bytes())
	var export bytes.Buffer
	if err := engine.WriteJSON(&export, engine.ExportMeta{BaseSeed: p.Seed, Quick: p.Quick, RunID: arc.RunID()}, zeroed); err != nil {
		return fmt.Errorf("rendering archive export: %w", err)
	}
	arc.AddBlob("export", export.Bytes())
	return nil
}

// Execute runs the plan the way the session's flags ask, or — under
// -worker — serves assignments until ctx ends. Every run goes through
// one campaign.Run call: its executor is the in-process runner, or a
// fabric coordinator sharding the tasks across -coordinator workers,
// and its campaign is nil unless -checkpoint/-resume makes the run
// durable. Before any task starts it derives the run identity and
// stamps the run ID on the session — its ledger, /statusz and the
// -leakage-out report Close writes (a worker only checks assignments
// against the identity basis; its coordinator owns the run); it
// installs the run's chaos plan, retry budget and telemetry as
// experiments.Overrides on every task's context; and after the run it
// settles the archive the session writes at Close.
//
// The reports come back in task order. Nil reports with an error mean
// the invocation itself is invalid (a bad chaos plan, a journal from
// another run); reports with an error mean the campaign journal failed
// and the run is not durable. A worker returns neither.
func (s *Session) Execute(ctx context.Context, p Plan) ([]engine.Report, error) {
	identity, err := p.Identity(s.flags)
	if err != nil {
		return nil, err
	}
	urls, err := s.flags.FabricWorkers()
	if err != nil {
		return nil, err
	}
	plan, err := s.flags.ChaosPlan(p.Seed)
	if err != nil {
		return nil, err
	}
	var tel *telemetry.Set
	if s.Metrics != nil || s.Trace != nil {
		tel = telemetry.New(s.Metrics, s.Trace)
	}
	ov := s.flags.Overrides(plan, tel)
	crashAfter := 0
	if plan != nil {
		crashAfter = plan.CrashPoint()
		s.Log.Info("chaos enabled", "plan", plan.String())
	}
	tasks := make([]engine.Task, len(p.Tasks))
	for i, t := range p.Tasks {
		run := t.Run
		t.Run = func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			return run(experiments.WithOverrides(ctx, ov), cfg)
		}
		tasks[i] = t
	}
	tracker := obs.NewTracker(p.Program, p.Seed, p.Quick, identity.Tasks)
	runner := s.runner(p, tracker)
	ecfg := engine.Config{Quick: p.Quick, Seed: p.Seed}

	if s.flags.Worker {
		// The coordinator owns task selection, the run identity and the
		// circuit breakers (admitting tasks before dispatch is what
		// propagates a family tripped on one worker to all), so a worker
		// only verifies the identity basis and runs what it is sent.
		runner.Breakers = nil
		byID := make(map[string]engine.Task, len(tasks))
		for _, t := range tasks {
			byID[t.ID] = t
		}
		s.run.Store(&runState{tracker: tracker})
		s.worker.Store(&fabric.Worker{
			Program: p.Program, BaseSeed: p.Seed, Quick: p.Quick, Config: identity.Config,
			Resolve: func(id string) (engine.Task, bool) {
				t, ok := byID[id]
				return t, ok
			},
			Runner: runner,
			// The chaos crash fault class, worker-targeted: exit(3) right
			// after the Nth streamed outcome instead of the Nth journaled.
			CrashPoint: campaign.CrashPoint{After: crashAfter},
			Logf:       s.logf,
		})
		s.Log.Info("fabric worker serving", "tasks", len(tasks), "crash_after", crashAfter)
		<-ctx.Done()
		s.Log.Info("fabric worker interrupted, shutting down")
		return nil, nil
	}

	runID := identity.RunID()
	camp, err := s.flags.Campaign(campaign.Header{
		Program: p.Program, BaseSeed: p.Seed, Quick: p.Quick, Tasks: identity.Tasks, RunID: runID,
	})
	if err != nil {
		return nil, err
	}
	if camp != nil {
		defer camp.Journal.Close()
		camp.CrashPoint.After = crashAfter
		s.Log.Info("campaign journal open", "path", camp.Journal.Path(),
			"replayed", len(camp.Replayed), "crash_after", crashAfter)
	}
	s.SetRunID(runID)
	arc := s.flags.Archiver(identity)
	s.SetArchiver(arc)
	for kind, path := range p.Files {
		arc.AddFile(kind, path)
	}
	s.run.Store(&runState{tracker: tracker, breakers: runner.Breakers})

	exec := campaign.Local(runner, ecfg)
	if len(urls) > 0 {
		// The coordinator falls back to the local executor for whatever
		// its workers leave unsettled.
		exec = (&fabric.Coordinator{
			Workers: urls, Program: p.Program, BaseSeed: p.Seed, Quick: p.Quick,
			Config: identity.Config, RunID: runID, Breakers: runner.Breakers, Local: exec,
			OnDegrade: func(reason string) {
				s.Log.Warn("fabric degraded to local execution", "reason", reason)
			},
			Logf: s.logf,
		}).Run
	}
	reports, journalErr := camp.Run(ctx, tasks, runner.OnDone, exec)
	for i := range reports {
		reports[i] = p.settled(reports[i])
		if camp != nil || len(urls) > 0 {
			// Campaign and fabric reports must render byte-identically to
			// an uninterrupted single-process run's, so their exports zero
			// the one nondeterministic field.
			reports[i].Wall = 0
		}
	}
	if err := p.Settle(arc, reports, runner.Breakers); err != nil {
		s.Log.Error("settling run archive", "err", err)
	}
	return reports, journalErr
}

// runner builds the plan's runner with the session's observer hooks:
// /statusz progress, per-task metrics deltas, structured progress logs
// and one ledger record per settled task.
func (s *Session) runner(p Plan, tracker *obs.Tracker) *engine.Runner {
	r := p.Runner(s.flags)
	seedOf := func(derived uint64) uint64 {
		if p.Root {
			return p.Seed
		}
		return derived
	}
	var done atomic.Int64
	r.OnStuck = func(t engine.Task, seed uint64) {
		tracker.MarkStuck(t.ID)
		s.Log.Warn("task stuck past watchdog", "id", t.ID, "seed", seedOf(seed),
			"watchdog", s.flags.Watchdog.String())
	}
	r.OnStart = func(t engine.Task, seed uint64) {
		seed = seedOf(seed)
		tracker.Begin(t.ID, seed)
		s.Deltas.Begin(t.ID)
		s.Log.Info("task start", "id", t.ID, "artifact", t.Artifact, "seed", seed)
	}
	r.OnDone = func(rep engine.Report) {
		rep = p.settled(rep)
		n := done.Add(1)
		outcome := observed(rep)
		tracker.End(rep.Task.ID, rep.Wall, outcome, rep.Err)
		delta := s.Deltas.End(rep.Task.ID)
		if !p.Root {
			// Set after the delta closes: wall time is nondeterministic
			// and must stay out of the ledger record.
			s.Metrics.Gauge(p.Program + "." + rep.Task.ID + ".wall_seconds").Set(rep.Wall.Seconds())
		}
		attrs := []any{
			"id", rep.Task.ID, "seed", rep.Seed, "outcome", outcome,
			"wall", rep.Wall.Round(time.Millisecond).String(),
			"n", n, "total", len(p.Tasks),
		}
		if rep.Err != nil {
			s.Log.Error("task failed", append(attrs, "err", rep.Err)...)
		} else {
			s.Log.Info("task done", attrs...)
		}
		if err := s.Ledger.Append(p.Record(rep, delta)); err != nil {
			s.Log.Error("appending ledger record", "id", rep.Task.ID, "err", err)
		}
	}
	return r
}

// logf adapts the session logger to the fabric's printf-style hooks.
func (s *Session) logf(format string, args ...any) { s.Log.Info(fmt.Sprintf(format, args...)) }
