package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// event is one line of the experiments CLI's JSON log (-log-format
// json), keeping the fields the benchmark reads. Times are the CLI's
// wall clock at nanosecond resolution.
type event struct {
	Time    time.Time `json:"time"`
	Msg     string    `json:"msg"`
	Job     string    `json:"job"`
	ID      string    `json:"id"`
	State   string    `json:"state"`
	Outcome string    `json:"outcome"`
	Addr    string    `json:"addr"`
}

// logFollower reads a CLI's stderr to EOF, keeping every event.
type logFollower struct {
	mu     sync.Mutex
	events []event
	addr   chan string   // the observability server's address, once
	done   chan struct{} // closed at EOF
}

func follow(r io.Reader) *logFollower {
	f := &logFollower{addr: make(chan string, 1), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			var ev event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Time.IsZero() {
				fmt.Fprintf(os.Stderr, "experiments: %s\n", sc.Bytes())
				continue
			}
			if ev.Msg == "observability server listening" {
				select {
				case f.addr <- ev.Addr:
				default:
				}
			}
			f.mu.Lock()
			f.events = append(f.events, ev)
			f.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, r) // drain past an over-long line so the child never blocks
	}()
	return f
}

// firstEvent returns the time of the first event with message msg seen
// so far.
func (f *logFollower) firstEvent(msg string) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ev := range f.events {
		if ev.Msg == msg {
			return ev.Time, true
		}
	}
	return time.Time{}, false
}

// all waits for EOF and returns every event.
func (f *logFollower) all() []event {
	<-f.done
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.events
}

// jobPhases is one service job's life as its log events tell it:
// "job submitted" → "job started" → "job task done"… → "job archived" →
// "job settled".
type jobPhases struct {
	submitted, started, lastTaskDone, archived, settled time.Time
	state                                               string
	taskStart                                           map[string]time.Time
	tasks                                               []span // task start → task done
}

// parseJobEvents folds the service's job events into phases by job ID.
func parseJobEvents(events []event) map[string]*jobPhases {
	jobs := map[string]*jobPhases{}
	for _, ev := range events {
		if ev.Job == "" {
			continue
		}
		j := jobs[ev.Job]
		if j == nil {
			j = &jobPhases{taskStart: map[string]time.Time{}}
			jobs[ev.Job] = j
		}
		switch ev.Msg {
		case "job submitted":
			j.submitted = ev.Time
		case "job started":
			j.started = ev.Time
		case "job task start":
			j.taskStart[ev.ID] = ev.Time
		case "job task done":
			j.lastTaskDone = ev.Time
			if t, ok := j.taskStart[ev.ID]; ok {
				j.tasks = append(j.tasks, span{name: "experiments." + ev.ID,
					interval: interval{t.UnixNano(), ev.Time.UnixNano()}})
			}
		case "job archived":
			j.archived = ev.Time
		case "job settled":
			j.settled, j.state = ev.Time, ev.State
		}
	}
	return jobs
}

// complete reports whether every phase boundary was logged in order.
func (j *jobPhases) complete() bool {
	ts := []time.Time{j.submitted, j.started, j.lastTaskDone, j.archived, j.settled}
	for i, t := range ts {
		if t.IsZero() || (i > 0 && t.Before(ts[i-1])) {
			return false
		}
	}
	return true
}

// spans are the job's service-side layer spans on the Unix-nanosecond
// clock: queue, execution (whose children are the task spans),
// archiving and settling.
func (j *jobPhases) spans() []span {
	iv := func(a, b time.Time) interval { return interval{a.UnixNano(), b.UnixNano()} }
	return []span{
		{name: "svc.queue", interval: iv(j.submitted, j.started)},
		{name: "engine.exec", interval: iv(j.started, j.lastTaskDone), children: j.tasks},
		{name: "runstore.archive", interval: iv(j.lastTaskDone, j.archived)},
		{name: "svc.settle", interval: iv(j.archived, j.settled)},
	}
}
