package svc

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"branchscope/internal/durable"
)

// FuzzReplayJournal checks replayJournal's fold of job, start and done
// records against modelReplay. Each input line is a record kind, a
// space and its JSON payload. The target frames the lines with
// durable.Frame, so a mutated payload reaches the fold instead of
// failing its checksum (durable.FuzzLines covers the frame), and tears
// a final line that lacks its newline. Replay must not panic, and it
// must agree with the model on both the error and the recovered jobs.
func FuzzReplayJournal(f *testing.F) {
	header := `svc {"schema":"` + JournalSchema + `"}` + "\n"
	interleaved := header +
		`job {"id":"job-000001","spec":{"schema":"` + SpecSchema + `","tenant":"alice"}}` + "\n" +
		`job {"id":"job-000002","spec":{"schema":"` + SpecSchema + `","tenant":"bob"}}` + "\n" +
		`start {"id":"job-000001"}` + "\n" +
		`done {"id":"job-000001","state":"` + StateDone + `"}` + "\n" +
		`start {"id":"job-000002"}` + "\n"
	f.Add(interleaved)
	f.Add(interleaved + `done {"id":"job-000002","state":"` + StateFailed + `"}`) // torn tail
	f.Add(interleaved + header)                                                   // a second header
	f.Add("")                                                                     // no header at all
	f.Fuzz(func(t *testing.T, input string) {
		var data []byte
		for _, l := range strings.SplitAfter(input, "\n") {
			if l == "" {
				continue
			}
			kind, payload, _ := strings.Cut(strings.TrimSuffix(l, "\n"), " ")
			line, err := durable.Frame(kind, json.RawMessage(payload))
			if err != nil {
				return // not JSON: nothing to frame
			}
			if !strings.HasSuffix(l, "\n") {
				line = line[:len(line)/2] // torn mid-append
			}
			data = append(data, line...)
		}
		recs, _, err := durable.Lines(data, durable.ParseFrame)
		if err != nil {
			return
		}
		want, wantErr := modelReplay(recs)
		got, err := replayJournal(recs)
		if (err != nil) != wantErr {
			t.Fatalf("replay error %v, want error: %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("replay recovered\n%+v\nwant\n%+v", got, want)
		}
	})
}

// modelReplay is the fold, written from the journal's rules: replay
// fails exactly when the header is missing, foreign or repeated, a kind
// is unknown, or a payload does not decode. Otherwise there is one job
// per job record, in order; a start or done record applies to the
// latest job with its ID and is ignored when no earlier job has it.
func modelReplay(recs []durable.Record) ([]recoveredJob, bool) {
	var h svcHeader
	if len(recs) == 0 || recs[0].Kind != kindHeader ||
		json.Unmarshal(recs[0].Payload, &h) != nil || h.Schema != JournalSchema {
		return nil, true
	}
	var jobs []recoveredJob
	for _, r := range recs[1:] {
		switch r.Kind {
		case kindJob:
			var rec jobRecord
			if json.Unmarshal(r.Payload, &rec) != nil {
				return nil, true
			}
			jobs = append(jobs, recoveredJob{rec: rec})
		case kindStart, kindDone:
			var m markRecord
			if json.Unmarshal(r.Payload, &m) != nil {
				return nil, true
			}
			for j := len(jobs) - 1; j >= 0; j-- {
				if jobs[j].rec.ID != m.ID {
					continue
				}
				if r.Kind == kindStart {
					jobs[j].started = true
				} else {
					jobs[j].state, jobs[j].reason = m.State, m.Reason
				}
				break
			}
		default:
			return nil, true
		}
	}
	return jobs, false
}
