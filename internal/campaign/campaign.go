package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"branchscope/internal/durable"
	"branchscope/internal/engine"
)

// CrashExitCode is the exit status of a run killed by an armed chaos
// crash point — distinct from 1 (failed tasks) and 2 (usage) so CI can
// assert the crash actually fired.
const CrashExitCode = 3

// Campaign couples a journal with an executor: Run journals every fresh
// task outcome as it completes, replays completed tasks on resume, and
// optionally kills the process at an injected crash point.
type Campaign struct {
	// Journal is the open journal; Run appends to it.
	Journal *Journal
	// Replayed holds the completed task records recovered by Resume
	// (empty for a fresh campaign).
	Replayed []TaskRecord
	// CrashPoint ticks once per fresh outcome this process journals
	// (see chaos.Plan.CrashPoint). Replayed records don't tick: the
	// crash point measures fresh progress, so a resumed run under the
	// same plan crashes again only after making that much new progress.
	CrashPoint CrashPoint
}

// CrashPoint is the chaos crash fault class: it kills the process with
// CrashExitCode right after its After-th tick, once. A campaign ticks it
// per journaled fresh outcome, a fabric worker per streamed outcome (its
// count carries over from one assignment to the next). The zero value
// never fires.
type CrashPoint struct {
	// After, when > 0, is the tick that fires the crash.
	After int
	// Fn is the crash action; nil means os.Exit(CrashExitCode). Tests
	// substitute a non-exiting hook.
	Fn func()

	ticks atomic.Int64
}

// Tick counts one outcome and fires the crash on the After-th.
func (p *CrashPoint) Tick() {
	if p.After <= 0 || p.ticks.Add(1) != int64(p.After) {
		return
	}
	if p.Fn != nil {
		p.Fn()
		return
	}
	os.Exit(CrashExitCode)
}

// Executor runs tasks and returns one report per task in task order,
// handing each report to onDone as its task settles (settle order,
// concurrently under parallel execution). Local is the in-process
// executor; fabric.Coordinator.Run is the distributed one.
type Executor func(ctx context.Context, tasks []engine.Task, onDone func(engine.Report)) []engine.Report

// Local is the in-process executor: r's RunSuite under cfg, with onDone
// in place of r's own OnDone.
func Local(r *engine.Runner, cfg engine.Config) Executor {
	return func(ctx context.Context, tasks []engine.Task, onDone func(engine.Report)) []engine.Report {
		run := *r
		run.OnDone = onDone
		return run.RunSuite(ctx, tasks, cfg)
	}
}

// New creates a fresh campaign journaling to path.
func New(path string, h Header) (*Campaign, error) {
	j, err := Create(path, h)
	if err != nil {
		return nil, err
	}
	return &Campaign{Journal: j}, nil
}

// Resume reopens an interrupted campaign: it loads the journal
// tolerantly (dropping a torn final record), verifies the header
// matches the resuming invocation, compacts the surviving records back
// to disk atomically, and returns a campaign that will replay the
// completed tasks and re-run the rest.
func Resume(path string, want Header) (*Campaign, error) {
	h, recs, _, err := Load(path)
	if err != nil {
		return nil, err
	}
	if err := headerMatches(h, want); err != nil {
		return nil, err
	}
	// Compact: rewrite header plus every surviving record via
	// temp+rename, dropping the torn tail so the reopened journal is
	// clean before new appends land. Failed-task records are dropped
	// too — their tasks are about to re-run and re-journal.
	buf, err := durable.Frame("header", h)
	if err != nil {
		return nil, fmt.Errorf("campaign: re-encoding journal header: %w", err)
	}
	completed := recs[:0]
	for _, rec := range recs {
		if !rec.Completed() {
			continue
		}
		line, err := durable.Frame("task", rec)
		if err != nil {
			return nil, fmt.Errorf("campaign: re-encoding task record %s: %w", rec.ID, err)
		}
		buf = append(buf, line...)
		completed = append(completed, rec)
	}
	app, err := durable.Create(path, buf)
	if err != nil {
		return nil, fmt.Errorf("campaign: compacting journal: %w", err)
	}
	return &Campaign{Journal: &Journal{path: path, app: app}, Replayed: completed}, nil
}

// headerMatches verifies a loaded journal belongs to the resuming run.
func headerMatches(got, want Header) error {
	if got.RunID != "" && want.RunID != "" && got.RunID != want.RunID {
		return fmt.Errorf("campaign: journal belongs to run %s, this run is %s", got.RunID, want.RunID)
	}
	if got.Program != want.Program {
		return fmt.Errorf("campaign: journal belongs to program %q, this run is %q", got.Program, want.Program)
	}
	if got.BaseSeed != want.BaseSeed {
		return fmt.Errorf("campaign: journal was recorded with -seed %d, this run uses %d", got.BaseSeed, want.BaseSeed)
	}
	if got.Quick != want.Quick {
		return fmt.Errorf("campaign: journal was recorded with quick=%v, this run uses %v", got.Quick, want.Quick)
	}
	if len(got.Tasks) != len(want.Tasks) {
		return fmt.Errorf("campaign: journal covers %d tasks, this run selects %d", len(got.Tasks), len(want.Tasks))
	}
	for i := range got.Tasks {
		if got.Tasks[i] != want.Tasks[i] {
			return fmt.Errorf("campaign: journal task %d is %q, this run selects %q", i, got.Tasks[i], want.Tasks[i])
		}
	}
	return nil
}

// Run executes tasks durably through exec. Completed tasks from a
// resumed journal are replayed first, in task order: each becomes a
// report (ReportOf) and goes to observe. The rest run fresh
// through exec, and each fresh outcome is journaled — fsynced — before
// observe sees it, then ticks the crash point. Reports come back in
// task order, exactly as exec alone would return them; the error
// reports a journal failure. A nil campaign is just exec with observe
// as its onDone.
//
// Determinism: task seeds derive from (base seed, task ID) alone, so
// the re-run subset executes with the same seeds the uninterrupted run
// used, and replayed results re-emit their checkpointed bytes verbatim
// — the merged report renders byte-identically to an uninterrupted
// run's at any parallelism, on any executor.
func (c *Campaign) Run(ctx context.Context, tasks []engine.Task, observe func(engine.Report), exec Executor) ([]engine.Report, error) {
	if observe == nil {
		observe = func(engine.Report) {}
	}
	if c == nil {
		return exec(ctx, tasks, observe), nil
	}
	done := make(map[string]TaskRecord, len(c.Replayed))
	for _, rec := range c.Replayed {
		if rec.Completed() {
			done[rec.ID] = rec
		}
	}
	reports := make([]engine.Report, len(tasks))
	var pending []engine.Task
	for i, t := range tasks {
		if rec, ok := done[t.ID]; ok {
			reports[i] = ReportOf(t, rec)
			observe(reports[i])
		} else {
			pending = append(pending, t)
		}
	}

	var mu sync.Mutex
	var journalErr error
	fresh := exec(ctx, pending, func(rep engine.Report) {
		err := c.Journal.Append(RecordOf(rep))
		if err != nil {
			mu.Lock()
			if journalErr == nil {
				journalErr = err
			}
			mu.Unlock()
		}
		observe(rep)
		if err == nil {
			c.CrashPoint.Tick()
		}
	})

	for i, t := range tasks {
		if _, ok := done[t.ID]; !ok {
			reports[i], fresh = fresh[0], fresh[1:]
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return reports, journalErr
}

// RecordOf converts a finished report into its journal record — the
// exact bytes Run journals, and the fabric wire payload a worker
// streams back to its coordinator. A record keeps how its task ran
// (the report's Outcome), so a report rebuilt from one (ReportOf)
// converts back to that same record.
func RecordOf(rep engine.Report) TaskRecord {
	rec := TaskRecord{
		ID:       rep.Task.ID,
		Seed:     rep.Seed,
		Outcome:  rep.Outcome,
		Attempts: rep.Attempts,
	}
	if rep.Err != nil {
		rec.Error = rep.Err.Error()
		return rec
	}
	rec.ResultText = rep.Result.String()
	rows := rep.Result.Rows()
	if rows != nil {
		rec.Rows = make([]json.RawMessage, 0, len(rows))
		for _, row := range rows {
			b, err := json.Marshal(row)
			if err != nil {
				// An unmarshalable row would also fail the JSON export;
				// journal the failure in place of silent truncation.
				b, _ = json.Marshal(map[string]string{"journal_error": err.Error()})
			}
			rec.Rows = append(rec.Rows, b)
		}
	}
	return rec
}

// ReportOf is RecordOf's inverse: it rebuilds task t's report from its
// record, with the record's outcome. A completed record comes back
// Replayed, rendering the record's checkpointed bytes verbatim, which is
// what makes both the resume path and the fabric merge byte-identical
// to an uninterrupted local run. A failed record comes back as the
// failure it records, its error reading as the recorded text.
func ReportOf(t engine.Task, rec TaskRecord) engine.Report {
	rep := engine.Report{Task: t, Seed: rec.Seed, Attempts: rec.Attempts, Outcome: rec.Outcome}
	if rec.Completed() {
		rep.Replayed = true
		rep.Result = replayResult{text: rec.ResultText, rows: rec.Rows}
		return rep
	}
	rep.Err = errors.New(rec.Error)
	return rep
}

// replayResult renders a journaled result byte-for-byte: String
// returns the checkpointed text, Rows wraps the checkpointed row JSON
// in engine.RawRow so the export re-emits it verbatim.
type replayResult struct {
	text string
	rows []json.RawMessage
}

func (r replayResult) String() string { return r.text }

func (r replayResult) Rows() []engine.Row {
	if r.rows == nil {
		return nil
	}
	rows := make([]engine.Row, len(r.rows))
	for i, raw := range r.rows {
		rows[i] = engine.RawRow(raw)
	}
	return rows
}
