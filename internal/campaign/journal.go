// Package campaign makes experiment suites durable: a crash-safe
// on-disk journal of per-task outcomes plus a resume path that replays
// completed tasks and re-runs only the rest, with the same derived
// seeds the uninterrupted run would have used. A run killed at any
// point — SIGKILL, power loss, an injected chaos crash point — and
// resumed converges to the byte-identical report of a run that was
// never interrupted.
//
// Durability model. The journal is JSONL: a header line followed by
// one line per finished task, each framed as
//
//	{"sum":"crc32:<8 hex>","header":{...}}   (first line)
//	{"sum":"crc32:<8 hex>","task":{...}}     (every further line)
//
// where the checksum covers the exact payload bytes. Records are
// flushed and fsynced as tasks complete, so the file never lies about
// a task that was reported done. The initial header is written via
// temp-file+rename (the journal exists atomically or not at all), and
// Resume compacts the surviving records the same way before appending.
// A torn final line — the crash arriving mid-append — is expected and
// dropped on load; a corrupt line anywhere earlier is real damage and
// fails the load.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
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

// envelope is the checksummed line framing.
type envelope struct {
	Sum    string          `json:"sum"`
	Header json.RawMessage `json:"header,omitempty"`
	Task   json.RawMessage `json:"task,omitempty"`
}

// checksum fingerprints a payload for the line frame.
func checksum(payload []byte) string {
	return fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(payload))
}

// frame renders one journal line for a payload.
func frame(kind string, payload any) ([]byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(envelope{Sum: checksum(body)})
	if err != nil {
		return nil, err
	}
	// Splice the payload under its kind key without re-encoding it:
	// the checksum must cover the exact bytes a reader will see.
	var buf bytes.Buffer
	buf.Write(line[:len(line)-1]) // drop the closing brace
	fmt.Fprintf(&buf, ",%q:", kind)
	buf.Write(body)
	buf.WriteString("}\n")
	return buf.Bytes(), nil
}

// Journal is an open campaign journal. Appends are mutex-serialized,
// flushed and fsynced per record (see Appender).
type Journal struct {
	path string
	app  *Appender
}

// Create writes a fresh journal for the run atomically (temp-file +
// rename) and returns it open for appending. An existing file at path
// is replaced: a non-resume run with -checkpoint starts a new campaign.
func Create(path string, h Header) (*Journal, error) {
	h.Schema = Schema
	line, err := frame("header", h)
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding journal header: %w", err)
	}
	if err := WriteAtomic(path, line); err != nil {
		return nil, fmt.Errorf("campaign: creating journal: %w", err)
	}
	return open(path)
}

// open opens an existing journal file for appending.
func open(path string) (*Journal, error) {
	app, err := OpenAppender(path)
	if err != nil {
		return nil, err
	}
	return &Journal{path: path, app: app}, nil
}

// Load reads a journal tolerantly: it returns the header, every valid
// task record, and whether a torn final line was dropped. Checksum
// mismatches and malformed lines are fatal unless they are the very
// last content in the file (the crash-mid-append case).
func Load(path string) (h Header, recs []TaskRecord, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, nil, false, fmt.Errorf("campaign: reading journal: %w", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	var pending error
	sawHeader := false
	for i, raw := range lines {
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		if pending != nil {
			// Content after a bad line: mid-file corruption, not a torn
			// tail.
			return Header{}, nil, false, pending
		}
		rec, perr := parseLine(line, i+1)
		if perr != nil {
			pending = perr
			continue
		}
		switch {
		case rec.Header != nil:
			if sawHeader {
				return Header{}, nil, false, fmt.Errorf("campaign: journal line %d: duplicate header", i+1)
			}
			if err := json.Unmarshal(rec.Header, &h); err != nil {
				return Header{}, nil, false, fmt.Errorf("campaign: journal line %d: bad header: %w", i+1, err)
			}
			if h.Schema != Schema {
				return Header{}, nil, false, fmt.Errorf("campaign: journal schema %q, want %q", h.Schema, Schema)
			}
			sawHeader = true
		case rec.Task != nil:
			if !sawHeader {
				return Header{}, nil, false, fmt.Errorf("campaign: journal line %d: task record before header", i+1)
			}
			var tr TaskRecord
			if err := json.Unmarshal(rec.Task, &tr); err != nil {
				return Header{}, nil, false, fmt.Errorf("campaign: journal line %d: bad task record: %w", i+1, err)
			}
			recs = append(recs, tr)
		}
	}
	if !sawHeader {
		if pending != nil {
			return Header{}, nil, false, fmt.Errorf("campaign: journal has no intact header: %w", pending)
		}
		return Header{}, nil, false, fmt.Errorf("campaign: journal %s has no header", path)
	}
	return h, recs, pending != nil, nil
}

// parseLine decodes and checksum-verifies one framed line.
func parseLine(line []byte, n int) (envelope, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return envelope{}, fmt.Errorf("campaign: journal line %d: %w", n, err)
	}
	payload := env.Header
	if payload == nil {
		payload = env.Task
	}
	if payload == nil {
		return envelope{}, fmt.Errorf("campaign: journal line %d: neither header nor task", n)
	}
	if got := checksum(payload); got != env.Sum {
		return envelope{}, fmt.Errorf("campaign: journal line %d: checksum %s, recorded %s", n, got, env.Sum)
	}
	return env, nil
}

// Append journals one task outcome, fsyncing before it returns so a
// crash immediately after cannot lose the record. It returns the total
// number of records appended by this process — the crash point's clock.
func (j *Journal) Append(rec TaskRecord) (int, error) { return j.app.Append("task", rec) }

// Close closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.app.Close()
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }
