// Package campaign makes experiment suites durable: a crash-safe
// on-disk journal of per-task outcomes plus a resume path that replays
// completed tasks and re-runs only the rest, with the same derived
// seeds the uninterrupted run would have used. A run killed at any
// point — SIGKILL, power loss, an injected chaos crash point — and
// resumed converges to the byte-identical report of a run that was
// never interrupted.
//
// One durable path. Campaign.Run drives any Executor: the in-process
// engine runner (Local) or a fabric coordinator, which only
// dispatches. Run is the one place that replays completed records,
// journals each fresh outcome before any observer sees it, fires the
// chaos crash point (CrashPoint, which a fabric worker ticks too) and
// merges the reports in task order. RecordOf and its inverse ReportOf
// are the one mapping between a report and its journal record.
//
// Durability model. The journal is JSONL: a header line followed by
// one line per finished task, each framed as
//
//	{"sum":"crc32:<8 hex>","header":{...}}   (first line)
//	{"sum":"crc32:<8 hex>","task":{...}}     (every further line)
//
// in internal/durable's CRC frame. Records are flushed and fsynced as
// tasks complete, so the file never lies about a task that was
// reported done. The initial header is written via temp-file+rename
// (the journal exists atomically or not at all), and Resume compacts
// the surviving records the same way before appending. A torn final
// line — the crash arriving mid-append — is expected and dropped on
// load; a corrupt line anywhere earlier is real damage and fails the
// load (durable.Lines).
package campaign

import (
	"encoding/json"
	"fmt"
	"os"

	"branchscope/internal/durable"
)

// Schema versions journal records; bump on incompatible change.
const Schema = "branchscope.campaign/v1"

// Header identifies the run a journal belongs to. Resume refuses a
// journal whose header disagrees with the resuming invocation: replaying
// task outcomes into a run with a different seed, scale or task list
// would silently splice unrelated results together.
type Header struct {
	Schema string `json:"schema"`
	// RunID is the run's causal identity (see internal/runstore).
	// Resume requires it to match when both sides carry one; empty on
	// either side is tolerated so pre-identity journals stay loadable.
	RunID    string `json:"run_id,omitempty"`
	Program  string `json:"program"`
	BaseSeed uint64 `json:"base_seed"`
	Quick    bool   `json:"quick"`
	// Tasks is the suite's full task-ID list in task order.
	Tasks []string `json:"tasks"`
}

// TaskRecord is one journaled task outcome. For successful tasks it
// carries the rendered result text and the raw row JSON, byte-for-byte
// as the engine's JSON export marshaled them — replaying a record
// re-emits exactly the bytes a fresh run would have produced.
type TaskRecord struct {
	ID       string `json:"id"`
	Seed     uint64 `json:"seed"`
	Outcome  string `json:"outcome"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// ResultText is Result.String() of a successful task.
	ResultText string `json:"result_text,omitempty"`
	// Rows holds each result row's marshaled JSON. nil (a result with
	// null rows) and empty (no rows) round-trip distinctly.
	Rows []json.RawMessage `json:"rows"`
}

// Completed reports whether the record settles its task: only genuine
// successes survive a resume; everything else re-runs.
func (r TaskRecord) Completed() bool {
	switch r.Outcome {
	case "ok", "retried-ok", "replayed":
		return true
	}
	return false
}

// Journal is an open campaign journal. Appends are mutex-serialized,
// flushed and fsynced per record (see durable.Appender).
type Journal struct {
	path string
	app  *durable.Appender
}

// Create writes a fresh journal for the run atomically (temp-file +
// rename) and returns it open for appending. An existing file at path
// is replaced: a non-resume run with -checkpoint starts a new campaign.
func Create(path string, h Header) (*Journal, error) {
	h.Schema = Schema
	line, err := durable.Frame("header", h)
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding journal header: %w", err)
	}
	app, err := durable.Create(path, line)
	if err != nil {
		return nil, fmt.Errorf("campaign: creating journal: %w", err)
	}
	return &Journal{path: path, app: app}, nil
}

// Load reads a journal tolerantly (durable.Lines): it returns the
// header, every valid task record, and whether a torn final line was
// dropped. The first frame must be the header and every later one a
// task record.
func Load(path string) (h Header, recs []TaskRecord, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, nil, false, fmt.Errorf("campaign: reading journal: %w", err)
	}
	frames, torn, err := durable.Lines(data, durable.ParseFrame)
	if err != nil {
		return Header{}, nil, false, fmt.Errorf("campaign: journal %w", err)
	}
	if len(frames) == 0 || frames[0].Kind != "header" {
		return Header{}, nil, false, fmt.Errorf("campaign: journal %s has no intact header", path)
	}
	if err := json.Unmarshal(frames[0].Payload, &h); err != nil {
		return Header{}, nil, false, fmt.Errorf("campaign: bad journal header: %w", err)
	}
	if h.Schema != Schema {
		return Header{}, nil, false, fmt.Errorf("campaign: journal schema %q, want %q", h.Schema, Schema)
	}
	for i, f := range frames[1:] {
		if f.Kind != "task" {
			return Header{}, nil, false, fmt.Errorf("campaign: journal record %d is a %q frame, want a task", i+2, f.Kind)
		}
		var tr TaskRecord
		if err := json.Unmarshal(f.Payload, &tr); err != nil {
			return Header{}, nil, false, fmt.Errorf("campaign: journal record %d: bad task record: %w", i+2, err)
		}
		recs = append(recs, tr)
	}
	return h, recs, torn, nil
}

// Append journals one task outcome, fsyncing before it returns so a
// crash immediately after cannot lose the record.
func (j *Journal) Append(rec TaskRecord) error {
	return j.app.Append("task", rec)
}

// Close closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.app.Close()
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }
