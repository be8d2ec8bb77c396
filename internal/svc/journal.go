package svc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"branchscope/internal/campaign"
)

// JournalSchema versions the service journal; bump on incompatible
// change.
const JournalSchema = "branchscope.svc/v1"

// The service journal reuses the campaign journal's CRC-framed JSONL
// lines (campaign.Frame/ParseFrame) with its own kinds:
//
//	{"sum":"crc32:...","svc":{"schema":"branchscope.svc/v1"}}  (header)
//	{"sum":"crc32:...","job":{...jobRecord...}}                (submit)
//	{"sum":"crc32:...","start":{"id":"job-000001"}}            (begin)
//	{"sum":"crc32:...","done":{"id":...,"state":...,"reason":...}}
//
// Like the campaign journal it is fsynced per append
// (campaign.Appender), torn-tail tolerant, and created atomically
// (campaign.WriteAtomic) — the restart-recovery contract (queued jobs
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
// replays it: every intact record is returned in submit order, a torn
// final line is dropped, and the surviving content is compacted back
// to disk so the reopened file is clean before new appends land. The
// returned appender frames and fsyncs each later record.
func openJournal(path string) (*campaign.Appender, []recoveredJob, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		line, ferr := campaign.Frame(kindHeader, svcHeader{Schema: JournalSchema})
		if ferr != nil {
			return nil, nil, fmt.Errorf("svc: encoding journal header: %w", ferr)
		}
		if werr := campaign.WriteAtomic(path, line); werr != nil {
			return nil, nil, fmt.Errorf("svc: creating journal: %w", werr)
		}
		j, oerr := campaign.OpenAppender(path)
		return j, nil, oerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("svc: reading journal: %w", err)
	}

	jobs, err := replayJournal(data)
	if err != nil {
		return nil, nil, err
	}
	// Compact: rewrite the surviving intact lines atomically, dropping
	// a torn tail before new appends could bury it mid-file.
	var buf bytes.Buffer
	line, err := campaign.Frame(kindHeader, svcHeader{Schema: JournalSchema})
	if err != nil {
		return nil, nil, fmt.Errorf("svc: re-encoding journal header: %w", err)
	}
	buf.Write(line)
	for _, rj := range jobs {
		if err := appendFrames(&buf, rj); err != nil {
			return nil, nil, err
		}
	}
	if err := campaign.WriteAtomic(path, buf.Bytes()); err != nil {
		return nil, nil, fmt.Errorf("svc: compacting journal: %w", err)
	}
	j, err := campaign.OpenAppender(path)
	return j, jobs, err
}

// appendFrames re-frames one recovered job's surviving records.
func appendFrames(buf *bytes.Buffer, rj recoveredJob) error {
	line, err := campaign.Frame(kindJob, rj.rec)
	if err != nil {
		return fmt.Errorf("svc: re-encoding job %s: %w", rj.rec.ID, err)
	}
	buf.Write(line)
	if rj.started {
		line, err = campaign.Frame(kindStart, markRecord{ID: rj.rec.ID})
		if err != nil {
			return fmt.Errorf("svc: re-encoding start %s: %w", rj.rec.ID, err)
		}
		buf.Write(line)
	}
	if rj.state != "" {
		line, err = campaign.Frame(kindDone, markRecord{ID: rj.rec.ID, State: rj.state, Reason: rj.reason})
		if err != nil {
			return fmt.Errorf("svc: re-encoding done %s: %w", rj.rec.ID, err)
		}
		buf.Write(line)
	}
	return nil
}

// replayJournal folds the journal lines into per-job recovery state.
// A torn final line is dropped; a corrupt line anywhere earlier is
// real damage and fails the load, matching campaign.Load.
func replayJournal(data []byte) ([]recoveredJob, error) {
	var jobs []recoveredJob
	// Index by position: jobs keeps growing, so a pointer into it would
	// go stale when a later submit reallocates the slice.
	byID := map[string]int{}
	var pending error
	sawHeader := false
	for i, raw := range bytes.Split(data, []byte("\n")) {
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		if pending != nil {
			return nil, pending
		}
		kind, payload, err := campaign.ParseFrame(line)
		if err != nil {
			pending = fmt.Errorf("svc: journal line %d: %w", i+1, err)
			continue
		}
		switch kind {
		case kindHeader:
			var h svcHeader
			if err := json.Unmarshal(payload, &h); err != nil {
				return nil, fmt.Errorf("svc: journal line %d: bad header: %w", i+1, err)
			}
			if h.Schema != JournalSchema {
				return nil, fmt.Errorf("svc: journal schema %q, want %q", h.Schema, JournalSchema)
			}
			sawHeader = true
		case kindJob:
			var rec jobRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				return nil, fmt.Errorf("svc: journal line %d: bad job record: %w", i+1, err)
			}
			byID[rec.ID] = len(jobs)
			jobs = append(jobs, recoveredJob{rec: rec})
		case kindStart:
			var m markRecord
			if err := json.Unmarshal(payload, &m); err != nil {
				return nil, fmt.Errorf("svc: journal line %d: bad start record: %w", i+1, err)
			}
			if i, ok := byID[m.ID]; ok {
				jobs[i].started = true
			}
		case kindDone:
			var m markRecord
			if err := json.Unmarshal(payload, &m); err != nil {
				return nil, fmt.Errorf("svc: journal line %d: bad done record: %w", i+1, err)
			}
			if i, ok := byID[m.ID]; ok {
				jobs[i].state, jobs[i].reason = m.State, m.Reason
			}
		default:
			return nil, fmt.Errorf("svc: journal line %d: unknown kind %q", i+1, kind)
		}
	}
	if !sawHeader && len(data) > 0 && pending == nil {
		return nil, errors.New("svc: journal has no header")
	}
	return jobs, nil
}
