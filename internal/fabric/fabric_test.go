package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"branchscope/internal/campaign"
	"branchscope/internal/engine"
	"branchscope/internal/runstore"
)

const testSeed = 42

// testResult renders deterministically from the seed the task ran with,
// so any seed drift between local and distributed execution shows up as
// a byte difference.
type testResult struct {
	id   string
	seed uint64
}

func (r testResult) String() string {
	return fmt.Sprintf("%s: deterministic result for seed %d\n", r.id, r.seed)
}

func (r testResult) Rows() []engine.Row {
	return []engine.Row{{engine.F("id", r.id), engine.F("seed", r.seed)}}
}

// okTask succeeds with a seed-derived result after an optional delay
// (the delay exercises heartbeat-based lease renewal; the result does
// not depend on it).
func okTask(id string, delay time.Duration) engine.Task {
	return engine.Task{
		ID: id, Artifact: "test artifact", Description: "deterministic test task",
		Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			if delay > 0 {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(delay):
				}
			}
			return testResult{id: id, seed: cfg.Seed}, nil
		},
	}
}

// retriedTask times out on its first attempt and succeeds on its
// second, which it tells apart by the attempt's seed: only the first
// runs on the task's standard derived seed. It needs a runner with a
// Timeout and room for two attempts (retryRunner).
func retriedTask(id string) engine.Task {
	return engine.Task{
		ID: id, Artifact: "test artifact", Description: "retried test task",
		Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			if cfg.Seed == engine.DeriveSeed(testSeed, id) {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return testResult{id: id, seed: cfg.Seed}, nil
		},
	}
}

// retryRunner times an attempt out after half a second and runs a task
// at most twice: retriedTask settles "retried-ok" under it, while
// suite's tasks (the slowest takes 300 ms) settle on their first.
func retryRunner() *engine.Runner {
	return &engine.Runner{Timeout: 500 * time.Millisecond, MaxAttempts: 2}
}

// failTask fails permanently with a deterministic error.
func failTask(id, family string) engine.Task {
	return engine.Task{
		ID: id, Artifact: "test artifact", Description: "failing test task", Family: family,
		Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			return nil, errors.New("systematic failure")
		},
	}
}

func taskIDs(tasks []engine.Task) []string {
	ids := make([]string, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID
	}
	return ids
}

// testWorker is one worker process stand-in: the fabric handler mounted
// under /fabric/ next to /readyz, exactly as the obs server mounts it,
// with a kill switch that simulates a crashed process (refuses new
// requests, severs live streams).
type testWorker struct {
	wk   *Worker
	srv  *httptest.Server
	down atomic.Bool
}

func newTestWorker(t *testing.T, tasks []engine.Task) *testWorker {
	t.Helper()
	byID := make(map[string]engine.Task, len(tasks))
	for _, task := range tasks {
		byID[task.ID] = task
	}
	tw := &testWorker{
		wk: &Worker{
			Program:  "fabrictest",
			BaseSeed: testSeed,
			Config:   map[string]any{"knob": "v"},
			Resolve: func(id string) (engine.Task, bool) {
				task, ok := byID[id]
				return task, ok
			},
			Runner:    &engine.Runner{},
			Heartbeat: 50 * time.Millisecond,
		},
	}
	mux := http.NewServeMux()
	mux.Handle("/fabric/", http.StripPrefix("/fabric", tw.wk.Handler()))
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	tw.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tw.down.Load() {
			http.Error(w, "worker down", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(tw.srv.Close)
	return tw
}

// kill simulates the worker process dying: every new request is refused
// and in-flight streams are severed mid-line.
func (tw *testWorker) kill() {
	tw.down.Store(true)
	tw.srv.CloseClientConnections()
}

func newCoordinator(urls []string, runID string) *Coordinator {
	return &Coordinator{
		Workers:       urls,
		Program:       "fabrictest",
		BaseSeed:      testSeed,
		Config:        map[string]any{"knob": "v"},
		RunID:         runID,
		Lease:         2 * time.Second,
		Local:         campaign.Local(&engine.Runner{}, engine.Config{Seed: testSeed}),
		ProbeAttempts: 1,
		ProbeBackoff:  10 * time.Millisecond,
	}
}

// logCapture collects coordinator log lines for assertions.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) joined() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return strings.Join(lc.lines, "\n")
}

// render produces the merged run's full deterministic surface: the text
// report, the JSON export, and the archive manifest.
func render(t *testing.T, reports []engine.Report, runID string, ids []string) (string, string, string) {
	t.Helper()
	for i := range reports {
		reports[i].Wall = 0
	}
	var text, export bytes.Buffer
	engine.FormatText(&text, reports)
	if err := engine.WriteJSON(&export, engine.ExportMeta{BaseSeed: testSeed, RunID: runID}, reports); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	outs := make([]runstore.TaskOutcome, 0, len(reports))
	for _, rep := range reports {
		o := runstore.TaskOutcome{ID: rep.Task.ID, Seed: rep.Seed, Outcome: rep.Outcome, Attempts: rep.Attempts}
		if rep.Err != nil {
			o.Error = rep.Err.Error()
		}
		outs = append(outs, o)
	}
	id := runstore.Identity{Program: "fabrictest", BaseSeed: testSeed, Tasks: ids, Config: map[string]any{"knob": "v"}}
	man, err := json.MarshalIndent(runstore.NewManifest(id, outs), "", "  ")
	if err != nil {
		t.Fatalf("marshaling manifest: %v", err)
	}
	return text.String(), export.String(), string(man)
}

// oracle runs the suite locally in-process — the byte-identity baseline
// every fabric configuration must reproduce.
func oracle(t *testing.T, tasks []engine.Task, runID string) (string, string, string) {
	t.Helper()
	r := &engine.Runner{}
	reports := r.RunSuite(context.Background(), tasks, engine.Config{Seed: testSeed})
	return render(t, reports, runID, taskIDs(tasks))
}

func suite(n int) []engine.Task {
	tasks := make([]engine.Task, 0, n)
	for i := 0; i < n; i++ {
		delay := time.Duration(0)
		if i == 1 {
			// One slow task so a heartbeat, not an outcome, renews its
			// lease at least once.
			delay = 300 * time.Millisecond
		}
		tasks = append(tasks, okTask(fmt.Sprintf("task%02d", i), delay))
	}
	return tasks
}

// TestMergedRunByteIdentical is the tentpole contract: the merged text
// report, JSON export and run manifest are byte-identical to a
// single-process run at worker counts 1 and 4, a retried task's
// "retried-ok" included.
func TestMergedRunByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tasks := append(suite(8), retriedTask("retried"))
			// The oracle, with the workers' retry budget.
			reports := retryRunner().RunSuite(context.Background(), tasks, engine.Config{Seed: testSeed})
			wantText, wantJSON, wantMan := render(t, reports, "bsr-test", taskIDs(tasks))
			if !strings.Contains(wantMan, `"retried-ok": 1`) {
				t.Fatalf("oracle manifest does not count the retried task:\n%s", wantMan)
			}
			urls := make([]string, workers)
			for i := range urls {
				tw := newTestWorker(t, tasks)
				tw.wk.Runner = retryRunner()
				urls[i] = tw.srv.URL
			}
			var lc logCapture
			coord := newCoordinator(urls, "bsr-test")
			coord.Logf = lc.logf
			coord.OnDegrade = func(reason string) { t.Errorf("unexpected degradation: %s", reason) }
			reports = coord.Run(context.Background(), tasks, nil)
			gotText, gotJSON, gotMan := render(t, reports, "bsr-test", taskIDs(tasks))
			if gotText != wantText {
				t.Errorf("merged text report differs from single-process run:\n--- got ---\n%s\n--- want ---\n%s", gotText, wantText)
			}
			if gotJSON != wantJSON {
				t.Errorf("merged JSON export differs from single-process run:\n--- got ---\n%s\n--- want ---\n%s", gotJSON, wantJSON)
			}
			if gotMan != wantMan {
				t.Errorf("merged manifest differs from single-process run:\n--- got ---\n%s\n--- want ---\n%s", gotMan, wantMan)
			}
			if log := lc.joined(); strings.Contains(log, "lease expired") {
				t.Errorf("healthy run saw a lease expiry:\n%s", log)
			}
		})
	}
}

// TestWorkerCrashMidRun kills one of two workers right after it streams
// its second outcome (the chaos crash class's worker-targeted mode) and
// requires the merged output to stay byte-identical: the dead worker's
// unsettled tasks are reassigned and re-run with task-derived seeds.
func TestWorkerCrashMidRun(t *testing.T) {
	tasks := suite(8)
	wantText, wantJSON, wantMan := oracle(t, tasks, "bsr-test")

	victim := newTestWorker(t, tasks)
	victim.wk.CrashPoint.After = 2
	victim.wk.CrashPoint.Fn = victim.kill
	survivor := newTestWorker(t, tasks)

	coord := newCoordinator([]string{victim.srv.URL, survivor.srv.URL}, "bsr-test")
	coord.StealAfter = time.Minute // reassignment must come from the requeue, not stealing
	coord.DispatchBudget = 10
	coord.WorkerBudget = 1 // drop the dead worker on its first post-crash failure
	reports := coord.Run(context.Background(), tasks, nil)
	if !victim.down.Load() {
		t.Fatal("victim worker never crashed: its crash point did not fire")
	}
	gotText, gotJSON, gotMan := render(t, reports, "bsr-test", taskIDs(tasks))
	if gotText != wantText {
		t.Errorf("merged text report differs after worker crash:\n--- got ---\n%s\n--- want ---\n%s", gotText, wantText)
	}
	if gotJSON != wantJSON {
		t.Errorf("merged JSON export differs after worker crash")
	}
	if gotMan != wantMan {
		t.Errorf("merged manifest differs after worker crash:\n--- got ---\n%s\n--- want ---\n%s", gotMan, wantMan)
	}
}

// TestLeaseExpiryReassigns points the coordinator at one worker that
// accepts assignments and then goes silent (no heartbeats, no outcomes)
// plus one healthy worker: the silent worker's lease must expire and
// every task must still settle byte-identically via the healthy one.
func TestLeaseExpiryReassigns(t *testing.T) {
	tasks := suite(6)
	wantText, wantJSON, _ := oracle(t, tasks, "bsr-test")

	// The dead-air worker: 200 OK, then silence until the coordinator
	// hangs up.
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc(RunPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done()
	})
	deadAir := httptest.NewServer(mux)
	defer deadAir.Close()
	healthy := newTestWorker(t, tasks)

	var lc logCapture
	coord := newCoordinator([]string{deadAir.URL, healthy.srv.URL}, "bsr-test")
	coord.Lease = 150 * time.Millisecond
	coord.DispatchBudget = 20
	coord.WorkerBudget = 20 // keep probing the silent worker; progress must come from reassignment
	coord.Logf = lc.logf
	healthy.wk.Heartbeat = 25 * time.Millisecond
	reports := coord.Run(context.Background(), tasks, nil)
	gotText, gotJSON, _ := render(t, reports, "bsr-test", taskIDs(tasks))
	if gotText != wantText {
		t.Errorf("merged text report differs under lease expiry:\n--- got ---\n%s\n--- want ---\n%s", gotText, wantText)
	}
	if gotJSON != wantJSON {
		t.Errorf("merged JSON export differs under lease expiry")
	}
	if log := lc.joined(); !strings.Contains(log, "lease expired") {
		t.Errorf("coordinator never reported a lease expiry:\n%s", log)
	}
}

// TestStartupDegradation: no worker reachable at startup degrades to
// local in-process execution with a logged degradation event, and the
// local run is (trivially but importantly) byte-identical.
func TestStartupDegradation(t *testing.T) {
	tasks := suite(4)
	wantText, wantJSON, _ := oracle(t, tasks, "bsr-test")

	var degraded atomic.Value
	coord := newCoordinator([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, "bsr-test")
	coord.OnDegrade = func(reason string) { degraded.Store(reason) }
	reports := coord.Run(context.Background(), tasks, nil)
	reason, _ := degraded.Load().(string)
	if !strings.Contains(reason, "no reachable workers") {
		t.Errorf("degradation reason = %q, want it to mention no reachable workers", reason)
	}
	gotText, gotJSON, _ := render(t, reports, "bsr-test", taskIDs(tasks))
	if gotText != wantText {
		t.Errorf("degraded-local text report differs:\n--- got ---\n%s\n--- want ---\n%s", gotText, wantText)
	}
	if gotJSON != wantJSON {
		t.Errorf("degraded-local JSON export differs")
	}
}

// TestTakeRefusesTrippedFamily pins pool-wide breaker propagation at
// the dispatch gate: once a streamed failure from any worker trips a
// family, take() refuses the family's not-yet-dispatched tasks with the
// engine's skipped-breaker report instead of handing them to another
// worker.
func TestTakeRefusesTrippedFamily(t *testing.T) {
	tasks := []engine.Task{failTask("bad1", "bad"), okTask("bad2", 0), okTask("good1", 0)}
	tasks[1].Family = "bad"
	tasks[2].Family = "good"

	c := newCoordinator([]string{"http://unused:1"}, "bsr-test")
	c.Breakers = engine.NewBreakerSet(1)
	c.onDone = func(engine.Report) {}
	c.states = make(map[string]*taskState, len(tasks))
	for _, task := range tasks {
		c.states[task.ID] = &taskState{task: task}
		c.order = append(c.order, task.ID)
	}

	// A failure streamed by some worker settles and trips the family.
	c.settle(campaign.TaskRecord{ID: "bad1", Seed: 1, Outcome: "error", Error: "systematic failure", Attempts: 1})

	batch := c.take()
	if len(batch) != 1 || batch[0].task.ID != "good1" {
		ids := make([]string, len(batch))
		for i, st := range batch {
			ids[i] = st.task.ID
		}
		t.Fatalf("take() = %v, want only good1 (bad family refused)", ids)
	}
	st := c.states["bad2"]
	if !st.settled {
		t.Fatal("bad2 not settled by breaker refusal")
	}
	if got := st.rep.Outcome; got != "skipped-open-breaker" {
		t.Errorf("bad2 outcome = %q, want skipped-open-breaker", got)
	}
	if !errors.Is(st.rep.Err, engine.ErrBreakerOpen) {
		t.Errorf("bad2 error = %v, want ErrBreakerOpen", st.rep.Err)
	}
	if want := engine.DeriveSeed(testSeed, "bad2"); st.rep.Seed != want {
		t.Errorf("bad2 refusal seed = %d, want derived %d (byte-identity with a local run's skip)", st.rep.Seed, want)
	}

	// A requeued task re-enters admission: the release resets the
	// one-time admission decision so the next take re-checks the
	// breaker.
	st2 := &taskState{task: tasks[1], copies: 1, admitted: true}
	c.requeue([]*taskState{st2}, nil)
	if st2.admitted {
		t.Error("requeue did not reset admission for a released task")
	}
}

// TestBreakerPropagation end-to-end: the only worker fails a family
// task and crashes; the family's remaining tasks — re-run through the
// degraded local path that shares the coordinator's breaker set — must
// be refused, while the other family still completes.
func TestBreakerPropagation(t *testing.T) {
	tasks := []engine.Task{
		failTask("bad1", "bad"), okTask("bad2", 0), okTask("bad3", 0), okTask("good1", 0),
	}
	tasks[1].Family = "bad"
	tasks[2].Family = "bad"
	tasks[3].Family = "good"

	victim := newTestWorker(t, tasks)
	victim.wk.CrashPoint.After = 1 // crash right after streaming bad1's failure
	victim.wk.CrashPoint.Fn = victim.kill

	coord := newCoordinator([]string{victim.srv.URL}, "bsr-test")
	coord.Breakers = engine.NewBreakerSet(1)
	// One central set, shared with degraded-local execution.
	coord.Local = campaign.Local(&engine.Runner{Breakers: coord.Breakers}, engine.Config{Seed: testSeed})
	coord.StealAfter = time.Minute
	coord.WorkerBudget = 1
	reports := coord.Run(context.Background(), tasks, nil)
	byID := make(map[string]engine.Report, len(reports))
	for _, rep := range reports {
		byID[rep.Task.ID] = rep
	}
	if got := byID["bad1"].Outcome; got != "error" {
		t.Errorf("bad1 outcome = %q, want error", got)
	}
	for _, id := range []string{"bad2", "bad3"} {
		rep := byID[id]
		if got := rep.Outcome; got != "skipped-open-breaker" {
			t.Errorf("%s outcome = %q, want skipped-open-breaker", id, got)
			continue
		}
		if !errors.Is(rep.Err, engine.ErrBreakerOpen) {
			t.Errorf("%s error = %v, want ErrBreakerOpen", id, rep.Err)
		}
	}
	if got := byID["good1"].Outcome; got != "ok" {
		t.Errorf("good1 outcome = %q, want ok (other families must keep running)", got)
	}
}

// TestWorkerRefusesForeignAssignment pins the 409 identity check: an
// assignment whose identity basis disagrees with the worker's flags is
// refused with a message naming both sides, mirroring campaign.Resume's
// journal-header refusal.
func TestWorkerRefusesForeignAssignment(t *testing.T) {
	tasks := suite(2)
	tw := newTestWorker(t, tasks)

	post := func(t *testing.T, a Assignment) (int, string) {
		t.Helper()
		body, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("marshaling assignment: %v", err)
		}
		resp, err := http.Post(tw.srv.URL+RunPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		return resp.StatusCode, msg.String()
	}

	good := Assignment{
		Schema: Schema, Program: "fabrictest", BaseSeed: testSeed,
		Config: map[string]any{"knob": "v"}, Tasks: taskIDs(tasks), LeaseMS: 2000,
	}

	badSeed := good
	badSeed.BaseSeed = testSeed + 1
	if code, msg := post(t, badSeed); code != http.StatusConflict || !strings.Contains(msg, "-seed 43") || !strings.Contains(msg, "42") {
		t.Errorf("foreign seed: status %d, body %q; want 409 naming both seeds", code, msg)
	}

	badCfg := good
	badCfg.Config = map[string]any{"knob": "other"}
	if code, msg := post(t, badCfg); code != http.StatusConflict || !strings.Contains(msg, "config") {
		t.Errorf("foreign config: status %d, body %q; want 409 naming the config", code, msg)
	}

	badProg := good
	badProg.Program = "experiments"
	if code, _ := post(t, badProg); code != http.StatusConflict {
		t.Errorf("foreign program: status %d, want 409", code)
	}

	unknown := good
	unknown.Tasks = []string{"no-such-task"}
	if code, msg := post(t, unknown); code != http.StatusBadRequest || !strings.Contains(msg, "no-such-task") {
		t.Errorf("unknown task: status %d, body %q; want 400 naming the task", code, msg)
	}

	if code, _ := post(t, good); code != http.StatusOK {
		t.Errorf("matching assignment: status %d, want 200", code)
	}
}

// TestCampaignCrashResume drives campaign.Run with the coordinator as
// its executor: a checkpointed distributed campaign crashes at its
// chaos crash point (after 3 journaled outcomes), resumes from the
// journal, and the final merged output must be byte-identical to an
// uninterrupted single-process run.
func TestCampaignCrashResume(t *testing.T) {
	tasks := suite(8)
	ids := taskIDs(tasks)
	wantText, wantJSON, wantMan := oracle(t, tasks, "bsr-test")

	path := filepath.Join(t.TempDir(), "campaign.journal")
	header := campaign.Header{RunID: "bsr-test", Program: "fabrictest", BaseSeed: testSeed, Tasks: ids}
	camp, err := campaign.New(path, header)
	if err != nil {
		t.Fatalf("creating campaign: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	camp.CrashPoint.After = 3
	camp.CrashPoint.Fn = cancel // the non-exiting test stand-in for os.Exit(3)

	w1, w2 := newTestWorker(t, tasks), newTestWorker(t, tasks)
	coord := newCoordinator([]string{w1.srv.URL, w2.srv.URL}, "bsr-test")
	if _, err := camp.Run(ctx, tasks, nil, coord.Run); err != nil {
		t.Fatalf("first (crashing) coordinator run: %v", err)
	}
	if err := camp.Journal.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}

	resumed, err := campaign.Resume(path, header)
	if err != nil {
		t.Fatalf("resuming campaign: %v", err)
	}
	if len(resumed.Replayed) < 3 {
		t.Fatalf("resumed campaign replays %d records, want >= 3 (crash point)", len(resumed.Replayed))
	}
	coord2 := newCoordinator([]string{w1.srv.URL, w2.srv.URL}, "bsr-test")
	reports, err := resumed.Run(context.Background(), tasks, nil, coord2.Run)
	if err != nil {
		t.Fatalf("resumed coordinator run: %v", err)
	}
	gotText, gotJSON, gotMan := render(t, reports, "bsr-test", ids)
	if gotText != wantText {
		t.Errorf("crash-resumed merged text differs:\n--- got ---\n%s\n--- want ---\n%s", gotText, wantText)
	}
	if gotJSON != wantJSON {
		t.Errorf("crash-resumed merged JSON export differs")
	}
	if gotMan != wantMan {
		t.Errorf("crash-resumed merged manifest differs:\n--- got ---\n%s\n--- want ---\n%s", gotMan, wantMan)
	}
}

// TestMidRunTotalWorkerLoss kills every worker mid-run: the coordinator
// must degrade the unsettled remainder to local execution (with a
// degradation event) and still merge byte-identically.
func TestMidRunTotalWorkerLoss(t *testing.T) {
	tasks := suite(6)
	wantText, wantJSON, _ := oracle(t, tasks, "bsr-test")

	w1 := newTestWorker(t, tasks)
	w1.wk.CrashPoint.After = 2
	w1.wk.CrashPoint.Fn = w1.kill

	var degraded atomic.Value
	coord := newCoordinator([]string{w1.srv.URL}, "bsr-test")
	coord.StealAfter = time.Minute
	coord.WorkerBudget = 1
	coord.OnDegrade = func(reason string) { degraded.Store(reason) }
	reports := coord.Run(context.Background(), tasks, nil)
	reason, _ := degraded.Load().(string)
	if !strings.Contains(reason, "all workers lost") {
		t.Errorf("degradation reason = %q, want it to mention all workers lost", reason)
	}
	gotText, gotJSON, _ := render(t, reports, "bsr-test", taskIDs(tasks))
	if gotText != wantText {
		t.Errorf("total-loss merged text differs:\n--- got ---\n%s\n--- want ---\n%s", gotText, wantText)
	}
	if gotJSON != wantJSON {
		t.Errorf("total-loss merged JSON export differs")
	}
}

// TestFallbackJournalsBeforeObserving: under -checkpoint, the
// coordinator's local fallback journals each outcome before any
// observer sees it, as a local run does (DESIGN §3.16). The only worker
// dies after streaming two outcomes, so the other four settle locally;
// the observer reloads the journal on every callback.
func TestFallbackJournalsBeforeObserving(t *testing.T) {
	tasks := suite(6)
	w1 := newTestWorker(t, tasks)
	w1.wk.CrashPoint.After = 2
	w1.wk.CrashPoint.Fn = w1.kill

	path := filepath.Join(t.TempDir(), "campaign.journal")
	camp, err := campaign.New(path, campaign.Header{RunID: "bsr-test", Program: "fabrictest", BaseSeed: testSeed, Tasks: taskIDs(tasks)})
	if err != nil {
		t.Fatalf("creating campaign: %v", err)
	}
	defer camp.Journal.Close()
	var mu sync.Mutex
	var observed, unjournaled []string
	observe := func(rep engine.Report) {
		_, recs, _, err := campaign.Load(path)
		if err != nil {
			t.Errorf("loading journal: %v", err)
		}
		journaled := false
		for _, rec := range recs {
			journaled = journaled || rec.ID == rep.Task.ID
		}
		mu.Lock()
		defer mu.Unlock()
		observed = append(observed, rep.Task.ID)
		if !journaled {
			unjournaled = append(unjournaled, rep.Task.ID)
		}
	}

	var degraded atomic.Value
	coord := newCoordinator([]string{w1.srv.URL}, "bsr-test")
	coord.StealAfter = time.Minute
	coord.WorkerBudget = 1
	coord.OnDegrade = func(reason string) { degraded.Store(reason) }
	if _, err := camp.Run(context.Background(), tasks, observe, coord.Run); err != nil {
		t.Fatalf("campaign run: %v", err)
	}
	if reason, _ := degraded.Load().(string); !strings.Contains(reason, "all workers lost") {
		t.Fatalf("degradation reason = %q, want the mid-run local fallback", reason)
	}
	if len(observed) != len(tasks) {
		t.Errorf("observers saw %d outcomes, want %d: %v", len(observed), len(tasks), observed)
	}
	if len(unjournaled) > 0 {
		t.Errorf("observers saw %v before they were journaled", unjournaled)
	}
}

// TestCrashPointParity: the crash point fires right after the Nth
// journaled outcome has reached the observers, whether the campaign's
// executor is the local runner or a coordinator.
func TestCrashPointParity(t *testing.T) {
	tasks := suite(6)
	for _, executor := range []string{"local", "coordinator"} {
		t.Run(executor, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.journal")
			camp, err := campaign.New(path, campaign.Header{RunID: "bsr-test", Program: "fabrictest", BaseSeed: testSeed, Tasks: taskIDs(tasks)})
			if err != nil {
				t.Fatalf("creating campaign: %v", err)
			}
			defer camp.Journal.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen atomic.Int64
			seenAtCrash := int64(-1)
			camp.CrashPoint.After = 3
			camp.CrashPoint.Fn = func() {
				seenAtCrash = seen.Load()
				cancel()
			}

			exec := campaign.Local(&engine.Runner{}, engine.Config{Seed: testSeed})
			if executor == "coordinator" {
				// One worker, so outcomes settle one at a time.
				exec = newCoordinator([]string{newTestWorker(t, tasks).srv.URL}, "bsr-test").Run
			}
			if _, err := camp.Run(ctx, tasks, func(engine.Report) { seen.Add(1) }, exec); err != nil {
				t.Fatalf("campaign run: %v", err)
			}
			if seenAtCrash != 3 {
				t.Errorf("observers had seen %d outcomes when the crash point fired, want 3", seenAtCrash)
			}
		})
	}
}

// TestRequeueReasonClassification pins the structured reason vocabulary
// requeue logs with: a clean stream end, a lease expiry (matched through
// error wrapping), and everything else.
func TestRequeueReasonClassification(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "worker-closed"},
		{ErrLeaseExpired, "lease-expired"},
		{fmt.Errorf("fabric: worker w: %w after 1s of silence", ErrLeaseExpired), "lease-expired"},
		{errors.New("connection refused"), "dispatch-failed"},
	}
	for _, tc := range cases {
		if got := requeueReason(tc.err); got != tc.want {
			t.Errorf("requeueReason(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestRequeueLogsStructuredReason: every reassignment emits a per-task
// log line carrying the classified reason and the attempt budget, so an
// operator can reconstruct where (and why) a task bounced.
func TestRequeueLogsStructuredReason(t *testing.T) {
	var lc logCapture
	c := newCoordinator(nil, "bsr-requeue-log")
	c.Logf = lc.logf
	c.DispatchBudget = 5
	mk := func(id string) *taskState {
		return &taskState{task: engine.Task{ID: id}, copies: 1}
	}
	c.requeue([]*taskState{mk("a")}, nil)
	c.requeue([]*taskState{mk("b")}, fmt.Errorf("fabric: worker w: %w after 1s of silence", ErrLeaseExpired))
	c.requeue([]*taskState{mk("c")}, errors.New("read tcp: connection reset"))
	out := lc.joined()
	for _, want := range []string{
		"fabric: task a requeued: reason=worker-closed attempts=0/5",
		"fabric: task b requeued: reason=lease-expired attempts=1/5",
		"fabric: task c requeued: reason=dispatch-failed attempts=1/5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q; got:\n%s", want, out)
		}
	}
}
