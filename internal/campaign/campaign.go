package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"branchscope/internal/engine"
)

// CrashExitCode is the exit status of a run killed by an armed chaos
// crash point — distinct from 1 (failed tasks) and 2 (usage) so CI can
// assert the crash actually fired.
const CrashExitCode = 3

// Campaign couples a journal with the engine runner: it journals every
// task outcome as it completes, replays completed tasks on resume, and
// optionally kills the process at an injected crash point.
type Campaign struct {
	// Journal is the open journal; Run appends to it.
	Journal *Journal
	// Replayed holds the completed task records recovered by Resume
	// (empty for a fresh campaign).
	Replayed []TaskRecord
	// CrashAfter, when > 0, crashes the process right after that many
	// task outcomes have been journaled by this process (see
	// chaos.Plan.CrashPoint). Replayed records don't count: the crash
	// point measures fresh progress, so a resumed run under the same
	// plan crashes again only after making that much new progress.
	CrashAfter int
	// CrashFn is the crash action; nil means os.Exit(CrashExitCode).
	// Tests substitute a non-exiting hook.
	CrashFn func()

	crashOnce sync.Once

	mu  sync.Mutex
	err error
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
	h, recs, torn, err := Load(path)
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
	var buf []byte
	line, err := frame("header", h)
	if err != nil {
		return nil, fmt.Errorf("campaign: re-encoding journal header: %w", err)
	}
	buf = append(buf, line...)
	completed := recs[:0]
	for _, rec := range recs {
		if !rec.Completed() {
			continue
		}
		line, err := frame("task", rec)
		if err != nil {
			return nil, fmt.Errorf("campaign: re-encoding task record %s: %w", rec.ID, err)
		}
		buf = append(buf, line...)
		completed = append(completed, rec)
	}
	if err := WriteAtomic(path, buf); err != nil {
		return nil, fmt.Errorf("campaign: compacting journal: %w", err)
	}
	j, err := open(path)
	if err != nil {
		return nil, err
	}
	_ = torn // already healed by the compaction
	return &Campaign{Journal: j, Replayed: completed}, nil
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

// Run executes the suite durably: completed tasks from a resumed
// journal are replayed as reports (delivered to the runner's OnDone so
// trackers and ledgers see them), the rest run fresh through the
// runner, and every fresh outcome is journaled — fsynced — before it
// is observed. Reports come back in task order, exactly as
// Runner.RunSuite would return them. The runner's OnDone hook is
// temporarily wrapped and restored before Run returns.
//
// Determinism: task seeds derive from (base seed, task ID) alone, so
// the re-run subset executes with the same seeds the uninterrupted run
// used, and replayed results re-emit their checkpointed bytes verbatim
// — the merged report renders byte-identically to an uninterrupted
// run's at any parallelism.
func (c *Campaign) Run(ctx context.Context, r *engine.Runner, tasks []engine.Task, cfg engine.Config) ([]engine.Report, error) {
	done := make(map[string]TaskRecord, len(c.Replayed))
	for _, rec := range c.Replayed {
		if rec.Completed() {
			done[rec.ID] = rec
		}
	}
	var pending []engine.Task
	for _, t := range tasks {
		if _, ok := done[t.ID]; !ok {
			pending = append(pending, t)
		}
	}

	orig := r.OnDone
	r.OnDone = func(rep engine.Report) {
		n, err := c.Journal.Append(RecordOf(rep))
		if err != nil {
			c.mu.Lock()
			if c.err == nil {
				c.err = err
			}
			c.mu.Unlock()
		}
		if orig != nil {
			orig(rep)
		}
		if c.CrashAfter > 0 && n >= c.CrashAfter {
			c.crash()
		}
	}
	defer func() { r.OnDone = orig }()

	// Replay first: observers see the recovered history before fresh
	// progress, and in task order.
	replayed := make(map[string]engine.Report, len(done))
	for _, t := range tasks {
		rec, ok := done[t.ID]
		if !ok {
			continue
		}
		rep := ReplayReport(t, rec)
		// Replayed reports carry the live runner's identity like fresh
		// ones: the run identity is invocation-scoped, not attempt-scoped.
		rep.RunID = r.RunID
		replayed[t.ID] = rep
		if orig != nil {
			orig(rep)
		}
	}

	fresh := r.RunSuite(ctx, pending, cfg)

	reports := make([]engine.Report, 0, len(tasks))
	fi := 0
	for _, t := range tasks {
		if rep, ok := replayed[t.ID]; ok {
			reports = append(reports, rep)
			continue
		}
		reports = append(reports, fresh[fi])
		fi++
	}
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	return reports, err
}

// crash fires the crash point exactly once.
func (c *Campaign) crash() {
	c.crashOnce.Do(func() {
		if c.CrashFn != nil {
			c.CrashFn()
			return
		}
		os.Exit(CrashExitCode)
	})
}

// Crash fires the campaign's crash point (once, like the internal
// path). The fabric coordinator journals outcomes itself rather than
// through Run's OnDone wrapper, so it needs the same crash action when
// its append count reaches CrashAfter.
func (c *Campaign) Crash() { c.crash() }

// RecordOf converts a finished report into its journal record — the
// exact bytes Run would journal, and the fabric wire payload a worker
// streams back to its coordinator.
func RecordOf(rep engine.Report) TaskRecord {
	rec := TaskRecord{
		ID:       rep.Task.ID,
		Seed:     rep.Seed,
		Outcome:  rep.Outcome(),
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

// ReplayReport reconstructs a completed task's report from its record:
// the report renders the record's checkpointed bytes verbatim, which is
// what makes both the resume path and the fabric merge byte-identical
// to an uninterrupted local run.
func ReplayReport(t engine.Task, rec TaskRecord) engine.Report {
	return engine.Report{
		Task:     t,
		Seed:     rec.Seed,
		Attempts: rec.Attempts,
		Replayed: true,
		Result:   replayResult{text: rec.ResultText, rows: rec.Rows},
	}
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
