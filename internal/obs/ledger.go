package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"branchscope/internal/durable"
	"branchscope/internal/telemetry"
)

// LedgerSchema versions ledger records; bump on incompatible change.
const LedgerSchema = "branchscope.ledger/v1"

// LedgerRecord is one run-provenance entry: everything needed to
// re-derive and audit a result claim — which experiment, under which
// configuration and seeds, what came out, and what the telemetry
// registry saw while it ran. RESULTS.md numbers become greppable
// artifacts: `grep '"id":"table2"' ledger.jsonl | jq .result_digest`.
type LedgerRecord struct {
	Schema string `json:"schema"`
	// RunID is the run's causal identity (see internal/runstore),
	// stamped even when nothing is archived so a bare ledger stays
	// joinable against archives and other ledgers after the fact.
	RunID    string `json:"run_id,omitempty"`
	Program  string `json:"program"`
	ID       string `json:"id"`
	Artifact string `json:"artifact,omitempty"`
	// Config is the flag-level configuration the task ran under. A Go
	// map marshals with sorted keys, so records are deterministic.
	Config map[string]any `json:"config"`
	// BaseSeed is the root seed; Seed the task's derived seed (equal
	// when the program runs a single root task).
	BaseSeed uint64 `json:"base_seed"`
	Seed     uint64 `json:"seed"`
	// Outcome is "ok", "retried-ok", "error", "panic", "exhausted",
	// "timeout", "canceled" or "skipped-open-breaker"
	// (engine.Report.Outcome's vocabulary), or "replayed" for a task
	// rebuilt from a campaign journal or a fabric worker's record.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// WallSeconds is the one nondeterministic field (0 in golden tests).
	WallSeconds float64 `json:"wall_seconds"`
	// ResultDigest fingerprints the rendered result ("sha256:<hex>");
	// two runs agreeing here produced byte-identical result text.
	ResultDigest string `json:"result_digest,omitempty"`
	// MetricsDelta is the telemetry registry's change attributed to
	// this task (see DeltaRecorder for the attribution caveat).
	MetricsDelta *telemetry.Snapshot `json:"metrics_delta,omitempty"`
	// Leakage carries the channel-quality gauges (leakage.* with the
	// prefix stripped) the task published, extracted from MetricsDelta
	// by LeakageFields; omitted for tasks that measured no channel.
	Leakage map[string]float64 `json:"leakage,omitempty"`
	// Rows carries the task's structured result rows. Only the campaign
	// service's job streams set it (file ledgers keep digests only, so
	// their shape is unchanged); stream clients get the data itself
	// without waiting for the archive.
	Rows []json.RawMessage `json:"rows,omitempty"`
}

// Digest fingerprints a rendered result for a LedgerRecord.
func Digest(result string) string {
	sum := sha256.Sum256([]byte(result))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Ledger appends schema-versioned JSONL records to a writer, one line
// per completed task/run. Appends are mutex-serialized so concurrent
// runner hooks never interleave lines. Like durable.Appender it is
// fail-stop: after a failed or short write, every later Append returns
// that first error, so no record is written behind a partial line. The
// nil Ledger is valid and drops records, matching the telemetry
// layer's nil-safety idiom.
type Ledger struct {
	mu    sync.Mutex
	w     io.Writer
	runID string
	err   error // first write error; sticky
}

// NewLedger wraps w; the caller owns closing it.
func NewLedger(w io.Writer) *Ledger { return &Ledger{w: w} }

// SetRunID sets the run identity stamped into records whose caller
// left RunID empty. Nil-safe.
func (l *Ledger) SetRunID(id string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.runID = id
	l.mu.Unlock()
}

// Append writes one record as a single JSON line, stamping the schema
// and run identity if the caller left them empty.
func (l *Ledger) Append(rec LedgerRecord) error {
	if l == nil {
		return nil
	}
	if rec.Schema == "" {
		rec.Schema = LedgerSchema
	}
	if rec.RunID == "" {
		l.mu.Lock()
		rec.RunID = l.runID
		l.mu.Unlock()
	}
	if rec.Config == nil {
		rec.Config = map[string]any{}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	n, err := l.w.Write(data)
	if err == nil && n < len(data) {
		err = io.ErrShortWrite
	}
	if err != nil {
		l.err = fmt.Errorf("obs: appending ledger record: %w", err)
	}
	return l.err
}

// ReadLedger parses a branchscope.ledger/v1 JSONL stream. A ledger is
// an append-only crash-safety artifact, read under durable.Lines'
// torn-tail rule: a process killed mid-append leaves a truncated final
// line behind, which is dropped and reported via torn rather than
// costing the reader every record before it; a malformed line in the
// middle of the stream is real corruption and fails the parse.
func ReadLedger(r io.Reader) (recs []LedgerRecord, torn bool, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, false, fmt.Errorf("obs: reading ledger: %w", err)
	}
	recs, torn, err = durable.Lines(data, ParseLedgerRecord)
	if err != nil {
		return nil, false, fmt.Errorf("obs: ledger %w", err)
	}
	return recs, torn, nil
}

// ParseLedgerRecord decodes one ledger line: the decoder ReadLedger
// and a session's durable.Heal of its ledger use.
func ParseLedgerRecord(line []byte) (LedgerRecord, error) {
	var rec LedgerRecord
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// DeltaRecorder attributes registry deltas to tasks: Begin snapshots
// the registry when a task starts, End returns what changed while it
// ran (nil when nothing did). Attribution is exact at -parallel 1; with
// concurrent tasks the windows overlap and each open window sees every
// concurrent task's updates — still useful as an upper bound, and the
// ledger's per-task seeds disambiguate reruns. Nil-safe throughout.
type DeltaRecorder struct {
	reg  *telemetry.Registry
	mu   sync.Mutex
	prev map[string]telemetry.Snapshot
}

// NewDeltaRecorder returns a recorder over reg, or nil when reg is nil
// (no registry means no deltas to record).
func NewDeltaRecorder(reg *telemetry.Registry) *DeltaRecorder {
	if reg == nil {
		return nil
	}
	return &DeltaRecorder{reg: reg, prev: make(map[string]telemetry.Snapshot)}
}

// Begin opens id's attribution window.
func (d *DeltaRecorder) Begin(id string) {
	if d == nil {
		return
	}
	snap := d.reg.Snapshot()
	d.mu.Lock()
	d.prev[id] = snap
	d.mu.Unlock()
}

// End closes id's window and returns the delta, nil when empty or when
// Begin was never called for id.
func (d *DeltaRecorder) End(id string) *telemetry.Snapshot {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	prev, ok := d.prev[id]
	delete(d.prev, id)
	d.mu.Unlock()
	if !ok {
		return nil
	}
	delta := d.reg.Snapshot().Delta(prev)
	if len(delta.Counters)+len(delta.Gauges)+len(delta.Histograms) == 0 {
		return nil
	}
	return &delta
}

// LeakageFields extracts the channel-quality gauges from a task's
// metrics delta for LedgerRecord.Leakage: every gauge under the
// "leakage." prefix, keyed with the prefix stripped ("leakage.ber" →
// "ber"). Nil-safe; returns nil when the delta carries none, so the
// ledger field marshals away. Go maps marshal with sorted keys, so the
// extraction preserves record determinism.
func LeakageFields(delta *telemetry.Snapshot) map[string]float64 {
	if delta == nil {
		return nil
	}
	var out map[string]float64
	const prefix = "leakage."
	for _, g := range delta.Gauges {
		if !strings.HasPrefix(g.Name, prefix) {
			continue
		}
		if out == nil {
			out = make(map[string]float64)
		}
		out[strings.TrimPrefix(g.Name, prefix)] = g.Value
	}
	return out
}
