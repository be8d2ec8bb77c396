package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"branchscope/internal/campaign"
	"branchscope/internal/durable"
	"branchscope/internal/engine"
)

// fuzzTasks are the tasks both fuzz targets know.
var fuzzTasks = []string{"task00", "task01"}

// FuzzAssignment posts arbitrary bodies to the worker's fabric handler.
// It must never panic. A body that does not decode, or decodes to an
// assignment that fails the identity check or names an unknown task, is
// answered 4xx before any task runs; an accepted one streams one task
// frame per assigned task, in order.
func FuzzAssignment(f *testing.F) {
	good, err := json.Marshal(Assignment{
		Schema: Schema, Program: "fabrictest", BaseSeed: testSeed,
		Config: map[string]any{"knob": "v"}, Tasks: fuzzTasks, LeaseMS: 2000,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := bytes.Clone(good)
	flipped[len(flipped)/3] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, body []byte) {
		var ran atomic.Int64
		wk := &Worker{
			Program: "fabrictest", BaseSeed: testSeed, Config: map[string]any{"knob": "v"},
			Resolve: func(id string) (engine.Task, bool) {
				if !slices.Contains(fuzzTasks, id) {
					return engine.Task{}, false
				}
				task := okTask(id, 0)
				run := task.Run
				task.Run = func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
					ran.Add(1)
					return run(ctx, cfg)
				}
				return task, true
			},
			Runner: &engine.Runner{},
			// No heartbeat fires, so the stream holds outcomes only.
			Heartbeat: time.Hour,
		}
		rec := httptest.NewRecorder()
		wk.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))

		var a Assignment
		accepted := json.NewDecoder(bytes.NewReader(body)).Decode(&a) == nil && wk.verify(a) == nil
		for _, id := range a.Tasks {
			accepted = accepted && slices.Contains(fuzzTasks, id)
		}
		if !accepted {
			if rec.Code < 400 || rec.Code > 499 {
				t.Fatalf("refused assignment answered %d, want 4xx", rec.Code)
			}
			if n := ran.Load(); n != 0 {
				t.Fatalf("%d task(s) ran for a refused assignment", n)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("accepted assignment answered %d: %s", rec.Code, rec.Body.Bytes())
		}
		var streamed []string
		for _, line := range bytes.SplitAfter(rec.Body.Bytes(), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			frame, err := durable.ParseFrame(bytes.TrimSuffix(line, []byte("\n")))
			if err != nil || frame.Kind != KindTask {
				t.Fatalf("streamed line %q is not a task frame (%v)", line, err)
			}
			var tr campaign.TaskRecord
			if err := json.Unmarshal(frame.Payload, &tr); err != nil {
				t.Fatalf("streamed record does not decode: %v", err)
			}
			streamed = append(streamed, tr.ID)
		}
		if !slices.Equal(streamed, a.Tasks) {
			t.Fatalf("streamed %v for assigned %v", streamed, a.Tasks)
		}
	})
}

// FuzzOutcomeStream feeds arbitrary bytes to the coordinator's fold of
// a worker's outcome stream. It must never panic. It settles each known
// task framed before the first frame with a bad checksum, an unknown
// kind or an undecodable record exactly once, settles nothing else, and
// stops with an error at that frame.
func FuzzOutcomeStream(f *testing.F) {
	var stream []byte
	for _, id := range fuzzTasks {
		lease, err := durable.Frame(KindLease, Heartbeat{Task: id})
		if err != nil {
			f.Fatal(err)
		}
		rep := (&engine.Runner{}).RunTask(context.Background(), okTask(id, 0), engine.Config{Seed: testSeed})
		line, err := frameRecord(campaign.RecordOf(rep))
		if err != nil {
			f.Fatal(err)
		}
		stream = append(append(stream, lease...), line...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)*3/4])
	flipped := bytes.Clone(stream)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		c := newCoordinator(nil, "bsr-fuzz")
		c.states = make(map[string]*taskState, len(fuzzTasks))
		for _, id := range fuzzTasks {
			c.states[id] = &taskState{task: okTask(id, 0)}
		}
		settled := map[string]int{}
		c.onDone = func(rep engine.Report) { settled[rep.Task.ID]++ }
		err := c.consume(bytes.NewReader(data), func() {})

		// The model folds the stream's lines (bufio.ScanLines' tokens)
		// up to the first bad frame.
		want := map[string]int{}
		wantErr := false
		lines := bytes.Split(data, []byte("\n"))
		if len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1]
		}
		for _, line := range lines {
			frame, err := durable.ParseFrame(bytes.TrimSuffix(line, []byte("\r")))
			if err == nil && frame.Kind == KindLease {
				continue
			}
			var rec campaign.TaskRecord
			if err != nil || frame.Kind != KindTask || json.Unmarshal(frame.Payload, &rec) != nil {
				wantErr = true
				break
			}
			if _, ok := c.states[rec.ID]; ok {
				want[rec.ID] = 1
			}
		}
		if (err != nil) != wantErr {
			t.Fatalf("fold error = %v, want an error: %v", err, wantErr)
		}
		if !maps.Equal(settled, want) {
			t.Fatalf("fold settled %v, want %v", settled, want)
		}
	})
}
