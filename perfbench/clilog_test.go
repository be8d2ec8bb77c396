package main

import (
	"strings"
	"testing"
	"time"
)

// cannedServiceLog is a service's -log-format json output for one job,
// plus lines the parser must skip.
const cannedServiceLog = `{"time":"2026-10-17T01:14:10.05865664Z","level":"INFO","msg":"observability server listening","addr":"127.0.0.1:34857","endpoints":"/metrics"}
{"time":"2026-10-17T01:14:10.799741049Z","level":"INFO","msg":"job submitted","job":"job-000001","tenant":"alice","run_id":"bsr-854aaa886a5a75a1","tasks":2}
{"time":"2026-10-17T01:14:10.800108347Z","level":"INFO","msg":"job started","job":"job-000001","tenant":"alice","run_id":"bsr-854aaa886a5a75a1"}
{"time":"2026-10-17T01:14:10.800321635Z","level":"INFO","msg":"job task start","job":"job-000001","tenant":"alice","id":"fig2","seed":7}
{"time":"2026-10-17T01:14:10.810000000Z","level":"INFO","msg":"job task done","job":"job-000001","tenant":"alice","id":"fig2","outcome":"ok"}
{"time":"2026-10-17T01:14:10.810100000Z","level":"INFO","msg":"job task start","job":"job-000001","tenant":"alice","id":"table1","seed":8}
{"time":"2026-10-17T01:14:10.812829111Z","level":"INFO","msg":"job task done","job":"job-000001","tenant":"alice","id":"table1","outcome":"ok"}
not json: a panic trace would look like this
{"time":"2026-10-17T01:14:10.815804725Z","level":"INFO","msg":"job archived","job":"job-000001","tenant":"alice","dir":"a/alice/bsr-854aaa886a5a75a1","run_id":"bsr-854aaa886a5a75a1"}
{"time":"2026-10-17T01:14:10.816182671Z","level":"INFO","msg":"job settled","job":"job-000001","tenant":"alice","state":"done","reason":""}
`

func TestServiceLogParsesIntoJobSpans(t *testing.T) {
	f := follow(strings.NewReader(cannedServiceLog))
	events := f.all()
	if len(events) != 9 {
		t.Fatalf("parsed %d events, want 9 (the non-JSON line skipped)", len(events))
	}
	if addr := <-f.addr; addr != "127.0.0.1:34857" {
		t.Errorf("listen address %q", addr)
	}
	jobs := parseJobEvents(events)
	j := jobs["job-000001"]
	if len(jobs) != 1 || j == nil {
		t.Fatalf("jobs = %v, want job-000001 only", jobs)
	}
	if !j.complete() || j.state != "done" || len(j.tasks) != 2 {
		t.Fatalf("phases %+v: want complete, done, 2 tasks", j)
	}
	want := map[string]time.Duration{
		"svc.queue":        367298 * time.Nanosecond,   // submitted → started
		"engine.exec":      12720764 * time.Nanosecond, // started → last task done
		"runstore.archive": 2975614 * time.Nanosecond,  // last task done → archived
		"svc.settle":       377946 * time.Nanosecond,   // archived → settled
	}
	spans := j.spans()
	if len(spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(spans), len(want))
	}
	for _, s := range spans {
		if got := time.Duration(s.dur()); got != want[s.name] {
			t.Errorf("%s = %v, want %v", s.name, got, want[s.name])
		}
	}
	// Execution's self time is the engine's work between and around the
	// two task spans.
	exec := spans[1]
	var tasks []interval
	for _, c := range exec.children {
		tasks = append(tasks, c.interval)
	}
	if self := selfTime(exec.interval, tasks); len(tasks) != 2 || self != 313288 {
		t.Errorf("engine.exec: %d task spans, self time %d ns; want 2 and 313288", len(tasks), self)
	}
}

func TestIncompleteJobIsNotComplete(t *testing.T) {
	log := strings.Join(strings.Split(cannedServiceLog, "\n")[:4], "\n")
	j := parseJobEvents(follow(strings.NewReader(log)).all())["job-000001"]
	if j == nil || j.complete() {
		t.Fatalf("a job with no task done, archive or settle event reads as complete: %+v", j)
	}
}
