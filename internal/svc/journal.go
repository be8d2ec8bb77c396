package svc

import (
	"encoding/json"
	"errors"
	"fmt"

	"branchscope/internal/durable"
)

// JournalSchema versions the service journal; bump on incompatible
// change.
const JournalSchema = "branchscope.svc/v1"

// The service journal reuses the campaign journal's CRC-framed JSONL
// lines (durable.Frame/ParseFrame) with its own kinds:
//
//	{"sum":"crc32:...","svc":{"schema":"branchscope.svc/v1"}}  (header)
//	{"sum":"crc32:...","job":{...jobRecord...}}                (submit)
//	{"sum":"crc32:...","start":{"id":"job-000001"}}            (begin)
//	{"sum":"crc32:...","done":{"id":...,"state":...,"reason":...}}
//
// Like the campaign journal it is fsynced per append
// (durable.Appender), torn-tail tolerant, and created atomically
// (durable.Create) — the restart-recovery contract (queued jobs
// resume, running jobs settle failed with a reason) depends on the
// submit record being durable before the client sees its 201.
const (
	kindHeader = "svc"
	kindJob    = "job"
	kindStart  = "start"
	kindDone   = "done"
)

// jobRecord is the durable submit record.
type jobRecord struct {
	ID    string `json:"id"`
	RunID string `json:"run_id"`
	Spec  Spec   `json:"spec"`
}

// markRecord is the durable start/done record.
type markRecord struct {
	ID     string `json:"id"`
	State  string `json:"state,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// svcHeader is the journal's first line.
type svcHeader struct {
	Schema string `json:"schema"`
}

// recoveredJob is one job reconstructed from the journal.
type recoveredJob struct {
	rec     jobRecord
	started bool
	state   string // settled state, "" when the job never settled
	reason  string
}

// openJournal opens (creating if absent) the service journal and
// replays it: every intact record is returned in submit order. The
// file is healed in place (durable.Heal) — a torn final line is
// truncated, an unterminated one ended — and appended to; a header is
// written only when the file is missing or empty. The returned
// appender frames and fsyncs each later record.
func openJournal(path string) (*durable.Appender, []recoveredJob, error) {
	recs, _, err := durable.Heal(path, durable.ParseFrame)
	if err != nil {
		return nil, nil, fmt.Errorf("svc: journal %w", err)
	}
	if len(recs) > 0 {
		jobs, err := replayJournal(recs)
		if err != nil {
			return nil, nil, err
		}
		app, err := durable.OpenAppender(path)
		return app, jobs, err
	}
	line, err := durable.Frame(kindHeader, svcHeader{Schema: JournalSchema})
	if err != nil {
		return nil, nil, fmt.Errorf("svc: encoding journal header: %w", err)
	}
	app, err := durable.Create(path, line)
	if err != nil {
		return nil, nil, fmt.Errorf("svc: creating journal: %w", err)
	}
	return app, nil, nil
}

// replayJournal folds the journal's records, as durable.Heal read
// them, into per-job recovery state. The first record must be the
// header, like campaign.Load's.
func replayJournal(recs []durable.Record) ([]recoveredJob, error) {
	if recs[0].Kind != kindHeader {
		return nil, errors.New("svc: journal has no header")
	}
	var h svcHeader
	if err := json.Unmarshal(recs[0].Payload, &h); err != nil {
		return nil, fmt.Errorf("svc: bad journal header: %w", err)
	}
	if h.Schema != JournalSchema {
		return nil, fmt.Errorf("svc: journal schema %q, want %q", h.Schema, JournalSchema)
	}
	var jobs []recoveredJob
	// Index by position: jobs keeps growing, so a pointer into it would
	// go stale when a later submit reallocates the slice.
	byID := map[string]int{}
	for i, r := range recs[1:] {
		switch r.Kind {
		case kindJob:
			var rec jobRecord
			if err := json.Unmarshal(r.Payload, &rec); err != nil {
				return nil, fmt.Errorf("svc: journal record %d: bad job record: %w", i+2, err)
			}
			byID[rec.ID] = len(jobs)
			jobs = append(jobs, recoveredJob{rec: rec})
		case kindStart, kindDone:
			var m markRecord
			if err := json.Unmarshal(r.Payload, &m); err != nil {
				return nil, fmt.Errorf("svc: journal record %d: bad %s record: %w", i+2, r.Kind, err)
			}
			j, ok := byID[m.ID]
			if !ok {
				continue
			}
			if r.Kind == kindStart {
				jobs[j].started = true
			} else {
				jobs[j].state, jobs[j].reason = m.State, m.Reason
			}
		default:
			return nil, fmt.Errorf("svc: journal record %d: unexpected kind %q", i+2, r.Kind)
		}
	}
	return jobs, nil
}
