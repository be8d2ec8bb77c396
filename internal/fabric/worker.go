package fabric

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"branchscope/internal/campaign"
	"branchscope/internal/durable"
	"branchscope/internal/engine"
)

// Worker executes assignments on behalf of a coordinator. Its identity
// fields mirror the coordinator's and an assignment whose identity
// basis disagrees is refused with 409 — running tasks under a foreign
// seed or config would splice unrelated results into the merged run,
// the same hazard campaign.Resume refuses on a journal header mismatch.
type Worker struct {
	// Program/BaseSeed/Quick/Config are this worker's identity basis,
	// built from its own flags (Config as runstore.Identity.Config
	// would record it).
	Program  string
	BaseSeed uint64
	Quick    bool
	Config   map[string]any

	// Resolve maps an assigned task ID to its runnable task. Unknown
	// IDs fail the whole assignment with 400 before any task runs.
	Resolve func(id string) (engine.Task, bool)
	// Runner executes the tasks. Its Breakers should be nil: circuit
	// breaking is coordinator-central so a family tripping on one
	// worker propagates to all (DESIGN §3.20).
	Runner *engine.Runner
	// RunCfg is the engine config tasks run under; its Seed is forced
	// to BaseSeed so execution can never drift from the verified
	// identity.
	RunCfg engine.Config

	// Heartbeat overrides the lease-renewal interval while a task is
	// still running; 0 derives a third of the assignment's lease.
	Heartbeat time.Duration

	// CrashPoint ticks once per outcome this worker streams, across
	// assignments — the chaos crash fault class's worker-targeted mode.
	CrashPoint campaign.CrashPoint

	// Logf receives worker progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Handler returns the worker's fabric endpoint handler, to be mounted
// under the obs server's /fabric/ prefix (so the coordinator POSTs to
// RunPath on the worker's obs address).
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", wk.serveRun)
	return mux
}

// verify checks an assignment's identity basis against the worker's.
func (wk *Worker) verify(a Assignment) error {
	if a.Schema != Schema {
		return fmt.Errorf("fabric: assignment schema %q, this worker speaks %q", a.Schema, Schema)
	}
	if a.Program != wk.Program {
		return fmt.Errorf("fabric: assignment is for program %q, this worker runs %q", a.Program, wk.Program)
	}
	if a.BaseSeed != wk.BaseSeed {
		return fmt.Errorf("fabric: assignment derives task seeds from -seed %d, this worker from %d", a.BaseSeed, wk.BaseSeed)
	}
	if a.Quick != wk.Quick {
		return fmt.Errorf("fabric: assignment was built with quick=%v, this worker runs quick=%v", a.Quick, wk.Quick)
	}
	want, err := configJSON(a.Config)
	if err != nil {
		return err
	}
	got, err := configJSON(wk.Config)
	if err != nil {
		return err
	}
	if want != got {
		return fmt.Errorf("fabric: assignment config %s, this worker's is %s", want, got)
	}
	return nil
}

// serveRun handles one assignment: verify identity, run the tasks in
// order, stream each outcome back as a CRC-framed journal record, and
// keep the lease alive with heartbeat frames while a task is running.
func (wk *Worker) serveRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "fabric: POST only", http.StatusMethodNotAllowed)
		return
	}
	var a Assignment
	if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
		http.Error(w, fmt.Sprintf("fabric: decoding assignment: %v", err), http.StatusBadRequest)
		return
	}
	if err := wk.verify(a); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	tasks := make([]engine.Task, 0, len(a.Tasks))
	for _, id := range a.Tasks {
		t, ok := wk.Resolve(id)
		if !ok {
			http.Error(w, fmt.Sprintf("fabric: unknown task %q", id), http.StatusBadRequest)
			return
		}
		tasks = append(tasks, t)
	}

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	sw := &streamWriter{w: w, f: flusher}

	cfg := wk.RunCfg
	cfg.Seed = wk.BaseSeed
	cfg.Quick = wk.Quick
	wk.logf("fabric: worker accepted %d task(s) for run %s", len(tasks), a.RunID)
	for _, t := range tasks {
		stop := wk.heartbeat(sw, t.ID, a.Lease())
		rep := wk.Runner.RunTask(r.Context(), t, cfg)
		stop()
		line, err := frameRecord(campaign.RecordOf(rep))
		if err != nil {
			wk.logf("fabric: worker: encoding %s outcome: %v", t.ID, err)
			return
		}
		if err := sw.writeLine(line); err != nil {
			// The coordinator hung up (lease expiry, shutdown); the
			// outcome is abandoned and the task will be reassigned —
			// harmless, because its re-run settles with identical bytes.
			wk.logf("fabric: worker: streaming %s outcome: %v", t.ID, err)
			return
		}
		wk.logf("fabric: worker streamed %s (%s)", t.ID, rep.Outcome)
		wk.CrashPoint.Tick()
	}
}

// heartbeat streams lease-renewal frames for the named task until the
// returned stop function is called. Interval: Heartbeat, else a third
// of the lease, else off (an unleased assignment needs no renewal).
func (wk *Worker) heartbeat(sw *streamWriter, taskID string, lease time.Duration) (stop func()) {
	interval := wk.Heartbeat
	if interval <= 0 {
		interval = lease / 3
	}
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				line, err := durable.Frame(KindLease, Heartbeat{Task: taskID})
				if err != nil {
					return
				}
				if err := sw.writeLine(line); err != nil {
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

func (wk *Worker) logf(format string, args ...any) {
	if wk.Logf != nil {
		wk.Logf(format, args...)
	}
}

// streamWriter serializes frame writes from the task loop and the
// heartbeat goroutine onto one response stream, flushing per frame so
// the coordinator's lease timer sees every line promptly.
type streamWriter struct {
	mu sync.Mutex
	w  http.ResponseWriter
	f  http.Flusher
}

func (s *streamWriter) writeLine(line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(line); err != nil {
		return err
	}
	if s.f != nil {
		s.f.Flush()
	}
	return nil
}
