package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"branchscope/internal/campaign"
	"branchscope/internal/engine"
	"branchscope/internal/experiments"
	"branchscope/internal/obs"
	"branchscope/internal/runstore"
)

// rowResult renders deterministically from the seed a task ran with, so
// any seed drift between service and direct execution shows up as a
// byte difference in report, export and manifest.
type rowResult struct {
	id   string
	seed uint64
}

func (r rowResult) String() string {
	return fmt.Sprintf("%s: deterministic result for seed %d\n", r.id, r.seed)
}

func (r rowResult) Rows() []engine.Row {
	return []engine.Row{{engine.F("id", r.id), engine.F("seed", r.seed)}}
}

// testRegistry builds the task registry test services run: two
// deterministic tasks plus a "slow" task gated on proceed (one receive
// per completion; cancellation unblocks it with ctx.Err()).
func testRegistry(proceed chan struct{}) []engine.Task {
	det := func(id string) engine.Task {
		return engine.Task{
			ID: id, Artifact: "table", Description: "deterministic test task",
			Run: func(_ context.Context, cfg engine.Config) (engine.Result, error) {
				return rowResult{id, cfg.Seed}, nil
			},
		}
	}
	slow := engine.Task{
		ID: "slow", Artifact: "table", Description: "gated test task",
		Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			select {
			case <-proceed:
				return rowResult{"slow", cfg.Seed}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	return []engine.Task{det("alpha"), det("beta"), slow}
}

// startService starts a service and tears it down (canceling whatever
// still runs) when the test ends.
func startService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New()
	if err := s.Start(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // expired: cancel running jobs immediately
		s.Drain(ctx)
		s.Close()
	})
	return s
}

// waitState polls until the job reaches state (10s deadline).
func waitState(t *testing.T, s *Service, id, state string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Get(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if st.State == state {
			return st
		}
		if settledState(st.State) || time.Now().After(deadline) {
			t.Fatalf("job %s: state %q (reason %q), want %q", id, st.State, st.Reason, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// directArchive runs the spec the way cmd/experiments would — the
// same plan, runner and settlement — and archives it under dir,
// returning the run directory. This is the byte-identity reference
// service archives are compared against.
func directArchive(t *testing.T, dir string, sp Spec, tasks []engine.Task) string {
	t.Helper()
	if sp.Program == "" {
		sp.Program = "experiments" // the normalization Submit applies
	}
	plan := sp.Plan(tasks)
	identity, err := plan.Identity(sp.Flags())
	if err != nil {
		t.Fatal(err)
	}
	runner := plan.Runner(sp.Flags())
	runner.RunID = identity.RunID()
	reports := runner.RunSuite(context.Background(), tasks, engine.Config{Quick: sp.Quick, Seed: sp.Seed()})
	arc := runstore.New(dir, identity)
	if err := plan.Settle(arc, reports, runner.Breakers); err != nil {
		t.Fatal(err)
	}
	runDir, err := arc.Write()
	if err != nil {
		t.Fatal(err)
	}
	return runDir
}

// tenantRunDir locates the single run directory archived for a tenant.
func tenantRunDir(t *testing.T, archiveDir, tenant string) string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(archiveDir, tenant))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("tenant %s: %d run dirs, want 1", tenant, len(entries))
	}
	return filepath.Join(archiveDir, tenant, entries[0].Name())
}

// assertRunDirsIdentical compares two run directories byte-for-byte:
// same directory name (same run ID) and identical report, export and
// manifest bytes.
func assertRunDirsIdentical(t *testing.T, got, want string) {
	t.Helper()
	if filepath.Base(got) != filepath.Base(want) {
		t.Errorf("run dir %q, want %q (run IDs diverged)", filepath.Base(got), filepath.Base(want))
	}
	for _, name := range []string{"report.txt", "export.json", runstore.ManifestName} {
		a, err := os.ReadFile(filepath.Join(got, name))
		if err != nil {
			t.Fatalf("service archive: %v", err)
		}
		b, err := os.ReadFile(filepath.Join(want, name))
		if err != nil {
			t.Fatalf("reference archive: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between service and direct run:\nservice:\n%s\ndirect:\n%s", name, a, b)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Schema: SpecSchema, Tenant: "alice"}
	if err := good.Validate("experiments"); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		sp   Spec
	}{
		{"bad schema", Spec{Schema: "nope/v9", Tenant: "a"}},
		{"empty tenant", Spec{Schema: SpecSchema}},
		{"path tenant", Spec{Schema: SpecSchema, Tenant: "../escape"}},
		{"dot tenant", Spec{Schema: SpecSchema, Tenant: ".."}},
		{"foreign program", Spec{Schema: SpecSchema, Tenant: "a", Program: "other"}},
		{"negative retry", Spec{Schema: SpecSchema, Tenant: "a", Retry: -1}},
		{"negative deadline", Spec{Schema: SpecSchema, Tenant: "a", DeadlineMS: -5}},
		{"bad chaos", Spec{Schema: SpecSchema, Tenant: "a", Chaos: "not-a-plan"}},
	}
	for _, tc := range cases {
		if err := tc.sp.Validate("experiments"); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestJobArchiveByteIdenticalToDirectRun: a service job's run ID,
// report, export and manifest must match a direct run of the same spec
// byte for byte — where a job ran never changes what it produced.
func TestJobArchiveByteIdenticalToDirectRun(t *testing.T) {
	dir := t.TempDir()
	reg := testRegistry(nil)
	s := startService(t, Config{
		Program: "experiments", Tasks: reg, ArchiveDir: dir,
		JournalPath: filepath.Join(dir, "svc.journal"),
	})
	sp := Spec{Schema: SpecSchema, Tenant: "alice", Quick: true, BaseSeed: 9, Tasks: []string{"alpha", "beta"}, Retry: 2}
	st, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if st.RunID == "" {
		t.Fatal("submit returned no run ID")
	}
	final := waitState(t, s, st.ID, StateDone)
	if final.Reason != "" {
		t.Errorf("done job has reason %q", final.Reason)
	}

	ref := directArchive(t, t.TempDir(), sp, reg[:2])
	assertRunDirsIdentical(t, tenantRunDir(t, dir, "alice"), ref)

	// The job's stream replays every task as a branchscope.ledger/v1
	// record carrying the run ID and result rows, then EOFs.
	stm, err := s.subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		line, ok, err := stm.next(context.Background(), i)
		if err != nil || !ok {
			t.Fatalf("stream line %d: ok=%v err=%v", i, ok, err)
		}
		var rec obs.LedgerRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("stream line %d not a ledger record: %v", i, err)
		}
		if rec.Schema != obs.LedgerSchema || rec.RunID != st.RunID || rec.Outcome != "ok" || len(rec.Rows) == 0 {
			t.Errorf("stream line %d: schema=%q run_id=%q outcome=%q rows=%d", i, rec.Schema, rec.RunID, rec.Outcome, len(rec.Rows))
		}
	}
	if _, ok, err := stm.next(context.Background(), 2); ok || err != nil {
		t.Errorf("stream should EOF after 2 lines (ok=%v err=%v)", ok, err)
	}
}

// TestAdmissionQuotasAndFairness: per-tenant queue overflow and global
// queue overflow shed with structured 429s without perturbing admitted
// jobs, and freed capacity goes to the other tenant before the
// flooding tenant's backlog (round-robin fairness).
func TestAdmissionQuotasAndFairness(t *testing.T) {
	proceed := make(chan struct{})
	s := startService(t, Config{
		Program: "experiments", Tasks: testRegistry(proceed),
		Limits: Limits{Jobs: 1, Queue: 2, TenantRunning: 1, TenantQueue: 1},
	})
	submit := func(tenant string) (JobStatus, error) {
		return s.Submit(Spec{Schema: SpecSchema, Tenant: tenant, Tasks: []string{"slow"}})
	}
	a1, err := submit("alice")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, a1.ID, StateRunning)
	a2, err := submit("alice") // queued: alice is at her running cap
	if err != nil {
		t.Fatal(err)
	}
	_, err = submit("alice") // alice's queue (cap 1) is full
	var se *SubmitError
	if !errors.As(err, &se) || se.Code != 429 || se.Scope != "tenant-queue" || se.RetryAfter <= 0 {
		t.Fatalf("third alice submit: got %v, want 429 tenant-queue with Retry-After", err)
	}
	b1, err := submit("bob") // queued: global queue has room
	if err != nil {
		t.Fatal(err)
	}
	_, err = submit("carol") // global queue (cap 2) is full
	if !errors.As(err, &se) || se.Code != 429 || se.Scope != "global-queue" {
		t.Fatalf("carol submit: got %v, want 429 global-queue", err)
	}

	// Shedding must not have perturbed the admitted jobs.
	if st, _ := s.Get(a1.ID); st.State != StateRunning {
		t.Errorf("a1 state %q after sheds, want running", st.State)
	}
	if st, _ := s.Get(a2.ID); st.State != StateQueued {
		t.Errorf("a2 state %q after sheds, want queued", st.State)
	}
	status := s.Status()
	if status.Shed != 2 {
		t.Errorf("status.Shed = %d, want 2", status.Shed)
	}

	// Fairness: when a1's slot frees, bob's first job must start before
	// alice's backlog even though alice queued first.
	proceed <- struct{}{}
	waitState(t, s, b1.ID, StateRunning)
	if st, _ := s.Get(a2.ID); st.State != StateQueued {
		t.Errorf("a2 state %q while bob runs, want queued", st.State)
	}
	proceed <- struct{}{} // finish bob
	waitState(t, s, a2.ID, StateRunning)
	proceed <- struct{}{} // finish alice's second job
	waitState(t, s, a2.ID, StateDone)
	if st, _ := s.Get(b1.ID); st.State != StateDone {
		t.Errorf("b1 state %q, want done", st.State)
	}
}

// TestCancel: canceling a queued job settles it without running;
// canceling a running job cancels its context and settles it canceled;
// canceling a settled job is a no-op; unknown IDs are ErrNotFound.
func TestCancel(t *testing.T) {
	proceed := make(chan struct{})
	s := startService(t, Config{
		Program: "experiments", Tasks: testRegistry(proceed),
		Limits: Limits{Jobs: 1, TenantRunning: 1},
	})
	r1, err := s.Submit(Spec{Schema: SpecSchema, Tenant: "alice", Tasks: []string{"slow"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, r1.ID, StateRunning)
	q1, err := s.Submit(Spec{Schema: SpecSchema, Tenant: "alice", Tasks: []string{"alpha"}})
	if err != nil {
		t.Fatal(err)
	}

	st, err := s.Cancel(q1.ID)
	if err != nil || st.State != StateCanceled {
		t.Fatalf("cancel queued: state %q err %v, want canceled", st.State, err)
	}
	if st, err = s.Cancel(r1.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, r1.ID, StateCanceled)
	if final.Reason == "" {
		t.Error("canceled running job carries no reason")
	}
	// Canceling again is a no-op on the settled state.
	if st, err = s.Cancel(r1.ID); err != nil || st.State != StateCanceled {
		t.Errorf("re-cancel: state %q err %v", st.State, err)
	}
	if _, err := s.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown job: %v, want ErrNotFound", err)
	}
	// The canceled running job's stream is closed (EOF for followers).
	stm, _ := s.subscribe(r1.ID)
	if _, ok, err := stm.next(context.Background(), 1000); ok || err != nil {
		t.Errorf("canceled job's stream should EOF, got ok=%v err=%v", ok, err)
	}
}

// TestDeadlineFailsJob: a job past its deadline_ms settles failed with
// an explicit deadline reason, not canceled and not hung.
func TestDeadlineFailsJob(t *testing.T) {
	proceed := make(chan struct{})
	s := startService(t, Config{Program: "experiments", Tasks: testRegistry(proceed)})
	st, err := s.Submit(Spec{Schema: SpecSchema, Tenant: "alice", Tasks: []string{"slow"}, DeadlineMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateFailed)
	if !strings.Contains(final.Reason, "deadline") {
		t.Errorf("deadline failure reason %q", final.Reason)
	}
}

// TestJournalRecovery: a restarted service re-enqueues journaled queued
// jobs (which then run to completion) and settles was-running jobs as
// failed with an explicit reason; settled jobs keep their state.
func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "svc.journal")
	proceed := make(chan struct{})
	s1 := New()
	if err := s1.Start(Config{
		Program: "experiments", Tasks: testRegistry(proceed), JournalPath: journal,
		ArchiveDir: dir, Limits: Limits{Jobs: 1, TenantRunning: 1},
	}); err != nil {
		t.Fatal(err)
	}
	done1, err := s1.Submit(Spec{Schema: SpecSchema, Tenant: "alice", Tasks: []string{"alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, done1.ID, StateDone)
	running, err := s1.Submit(Spec{Schema: SpecSchema, Tenant: "alice", Tasks: []string{"slow"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, running.ID, StateRunning)
	queued, err := s1.Submit(Spec{Schema: SpecSchema, Tenant: "alice", Tasks: []string{"beta"}})
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a crash: no drain, no settle — a second service replays
	// the same journal while the first still has an executor blocked.
	s2 := startService(t, Config{
		Program: "experiments", Tasks: testRegistry(proceed), JournalPath: journal,
		ArchiveDir: t.TempDir(),
	})
	if st, err := s2.Get(done1.ID); err != nil || st.State != StateDone {
		t.Errorf("settled job after restart: state %q err %v, want done", st.State, err)
	}
	st, err := s2.Get(running.ID)
	if err != nil || st.State != StateFailed {
		t.Fatalf("was-running job after restart: state %q err %v, want failed", st.State, err)
	}
	if !strings.Contains(st.Reason, "restarted") {
		t.Errorf("was-running job reason %q", st.Reason)
	}
	// The queued job re-enqueues and completes; its ID survives.
	waitState(t, s2, queued.ID, StateDone)
	// New submissions don't collide with recovered IDs.
	fresh, err := s2.Submit(Spec{Schema: SpecSchema, Tenant: "alice", Tasks: []string{"alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == done1.ID || fresh.ID == running.ID || fresh.ID == queued.ID {
		t.Errorf("fresh job reused an ID: %s", fresh.ID)
	}

	// Tear down the crashed service's blocked executor.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s1.Drain(ctx)
	s1.Close()
}

// TestJournalReplayInterleavedRecords: start/done records that follow
// later submits still land on their own job. A pointer into the
// growing job slice would go stale once a later submit reallocates it,
// recovering job-000001 below as never started — and re-running it
// after a restart.
func TestJournalReplayInterleavedRecords(t *testing.T) {
	var data []byte
	for _, rec := range []struct {
		kind    string
		payload any
	}{
		{kindHeader, svcHeader{Schema: JournalSchema}},
		{kindJob, jobRecord{ID: "job-000001", Spec: Spec{Schema: SpecSchema, Tenant: "alice"}}},
		{kindJob, jobRecord{ID: "job-000002", Spec: Spec{Schema: SpecSchema, Tenant: "bob"}}},
		{kindStart, markRecord{ID: "job-000001"}},
		{kindDone, markRecord{ID: "job-000001", State: StateDone}},
		{kindStart, markRecord{ID: "job-000002"}},
	} {
		line, err := campaign.Frame(rec.kind, rec.payload)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, line...)
	}
	jobs, err := replayJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(jobs))
	}
	if j := jobs[0]; !j.started || j.state != StateDone {
		t.Errorf("job-000001 recovered started=%v state=%q, want started and done", j.started, j.state)
	}
	if j := jobs[1]; !j.started || j.state != "" {
		t.Errorf("job-000002 recovered started=%v state=%q, want started and unsettled", j.started, j.state)
	}
}

// TestJournalToleratesTornTail: a torn final line (crash mid-append) is
// dropped on replay; the journaled jobs before it survive.
func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "svc.journal")
	s1 := New()
	if err := s1.Start(Config{Program: "experiments", Tasks: testRegistry(nil), JournalPath: journal}); err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(Spec{Schema: SpecSchema, Tenant: "alice", Tasks: []string{"alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, st.ID, StateDone)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s1.Drain(ctx)
	s1.Close()

	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"torn`) // no newline, no CRC
	f.Close()

	s2 := startService(t, Config{Program: "experiments", Tasks: testRegistry(nil), JournalPath: journal})
	if got, err := s2.Get(st.ID); err != nil || got.State != StateDone {
		t.Errorf("after torn tail: state %q err %v, want done", got.State, err)
	}
}

// TestChaoticTenantKilledMidStreamLeavesOthersByteIdentical is the
// isolation end-to-end: a tenant running a pathological spec — heavy
// chaos, retries, a gated task — is killed mid-stream while another
// tenant's job runs concurrently on the same pool, and the surviving
// tenant's archive is still byte-identical to a direct run of its
// spec. One tenant's chaos must never leak into another's bytes.
func TestChaoticTenantKilledMidStreamLeavesOthersByteIdentical(t *testing.T) {
	dir := t.TempDir()
	proceed := make(chan struct{})
	reg := testRegistry(proceed)
	s := startService(t, Config{
		Program: "experiments", Tasks: reg, ArchiveDir: dir,
		Pool:   engine.NewPool(4),
		Limits: Limits{Jobs: 2, TenantRunning: 1},
	})

	mallorySpec := Spec{
		Schema: SpecSchema, Tenant: "mallory",
		Tasks: []string{"slow", "alpha"}, Chaos: "heavy", Retry: 3, BaseSeed: 13,
	}
	mallory, err := s.Submit(mallorySpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, mallory.ID, StateRunning)

	aliceSpec := Spec{Schema: SpecSchema, Tenant: "alice", Quick: true, BaseSeed: 9, Tasks: []string{"alpha", "beta"}}
	alice, err := s.Submit(aliceSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Kill mallory's job mid-stream: its "slow" task is blocked, its
	// stream has no settle yet. Alice's job must be unaffected.
	if _, err := s.Cancel(mallory.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, mallory.ID, StateCanceled)
	if st := waitState(t, s, alice.ID, StateDone); st.RunID == "" {
		t.Fatal("alice's job lost its run ID")
	}

	// Mallory left no archive (the job never completed)…
	if _, err := os.Stat(filepath.Join(dir, "mallory")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("canceled job archived anyway: %v", err)
	}
	// …and alice's bytes are exactly what a direct run produces.
	ref := directArchive(t, t.TempDir(), aliceSpec, reg[:2])
	assertRunDirsIdentical(t, tenantRunDir(t, dir, "alice"), ref)
}

// TestJobOverridesComeFromSpec: each job's tasks see exactly their own
// spec's chaos plan and retry budget on the context — a job without
// chaos sees none even while a chaotic job shares the service.
func TestJobOverridesComeFromSpec(t *testing.T) {
	seen := make(chan *experiments.Overrides, 2)
	probe := engine.Task{
		ID: "probe", Artifact: "table",
		Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			seen <- experiments.OverridesFrom(ctx)
			return rowResult{"probe", cfg.Seed}, nil
		},
	}
	s := startService(t, Config{Program: "experiments", Tasks: []engine.Task{probe}})
	for _, sp := range []Spec{
		{Schema: SpecSchema, Tenant: "mallory", Chaos: "heavy", Retry: 3},
		{Schema: SpecSchema, Tenant: "alice"},
	} {
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, st.ID, StateDone)
		ov := <-seen
		if ov == nil {
			t.Fatalf("%s: job context carries no overrides", sp.Tenant)
		}
		chaotic := sp.Chaos != ""
		if (ov.Chaos != nil) != chaotic || (ov.Retry != nil) != chaotic {
			t.Errorf("%s: overrides chaos=%v retry=%v, want spec's own", sp.Tenant, ov.Chaos, ov.Retry)
		}
		if chaotic && ov.Retry.MaxAttempts != sp.Retry {
			t.Errorf("%s: retry budget %d, want %d", sp.Tenant, ov.Retry.MaxAttempts, sp.Retry)
		}
	}
}

// TestHTTPAPI exercises the wire surface end to end: submit (201 and
// structured 429/400), list, get, NDJSON stream to EOF, cancel, 404.
func TestHTTPAPI(t *testing.T) {
	proceed := make(chan struct{})
	s := startService(t, Config{
		Program: "experiments", Tasks: testRegistry(proceed),
		Limits: Limits{Jobs: 1, Queue: 1, TenantRunning: 1, TenantQueue: 1},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post(`{"schema":"branchscope.job/v1","tenant":"alice","tasks":["alpha","beta"],"quick":true}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" || st.RunID == "" {
		t.Fatalf("submit returned %+v", st)
	}

	// Malformed and invalid specs are 400s.
	if resp := post(`{"schema":"wrong/v1","tenant":"alice"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad schema: status %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := post(`{"schema":"branchscope.job/v1","tenant":"alice","tasks":["nope"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown task: status %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Streaming follows the job to EOF and yields valid NDJSON.
	streamResp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(streamResp.Body)
	for sc.Scan() {
		var rec obs.LedgerRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("stream line %d: %v", lines, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 2 {
		t.Errorf("streamed %d lines, want 2", lines)
	}
	waitState(t, s, st.ID, StateDone)

	// Quota overflow over the wire: fill alice's queue, then shed with
	// a structured 429 carrying Retry-After header and scope body.
	submitSlow := `{"schema":"branchscope.job/v1","tenant":"alice","tasks":["slow"]}`
	r1 := post(submitSlow) // runs
	r1.Body.Close()
	r2 := post(submitSlow) // queues
	r2.Body.Close()
	shed := post(submitSlow)
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", shed.StatusCode)
	}
	if ra := shed.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	}
	var doc struct {
		Error string `json:"error"`
		Scope string `json:"scope"`
	}
	if err := json.NewDecoder(shed.Body).Decode(&doc); err != nil || doc.Scope != "tenant-queue" {
		t.Errorf("429 body scope %q err %v, want tenant-queue", doc.Scope, err)
	}
	shed.Body.Close()

	// List filters by tenant; get and cancel round-trip; 404s are 404s.
	listResp, err := http.Get(srv.URL + "/jobs?tenant=alice")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Schema string      `json:"schema"`
		Jobs   []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if listing.Schema != JobsSchema || len(listing.Jobs) != 3 {
		t.Errorf("listing: schema %q, %d jobs, want %s with 3", listing.Schema, len(listing.Jobs), JobsSchema)
	}
	if resp, err := http.Get(srv.URL + "/jobs/job-999999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job GET: %v status %d, want 404", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	cancelResp, err := http.Post(srv.URL+"/jobs/"+listing.Jobs[2].ID+"/cancel", "application/json", nil)
	if err != nil || cancelResp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v status %d", err, cancelResp.StatusCode)
	}
	cancelResp.Body.Close()

	// Drain the still-running slow jobs so cleanup is prompt.
	proceed <- struct{}{}
}

// TestHandlerBeforeStart: the handler is mountable before Start and
// answers 503 until the service is wired.
func TestHandlerBeforeStart(t *testing.T) {
	s := New()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unstarted service: status %d, want 503", resp.StatusCode)
	}
}

// TestSubmitWhileDraining: a draining service sheds submissions with
// 503 + Retry-After and still lets the running work settle.
func TestSubmitWhileDraining(t *testing.T) {
	proceed := make(chan struct{})
	s := startService(t, Config{Program: "experiments", Tasks: testRegistry(proceed)})
	st, err := s.Submit(Spec{Schema: SpecSchema, Tenant: "alice", Tasks: []string{"slow"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		s.Drain(context.Background())
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("service never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = s.Submit(Spec{Schema: SpecSchema, Tenant: "bob", Tasks: []string{"alpha"}})
	var se *SubmitError
	if !errors.As(err, &se) || se.Code != 503 || se.RetryAfter <= 0 || !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want 503 + Retry-After wrapping ErrDraining", err)
	}
	proceed <- struct{}{}
	<-drained
	if got, _ := s.Get(st.ID); got.State != StateDone {
		t.Errorf("running job after graceful drain: state %q, want done", got.State)
	}
	if !s.Ready() || s.Status().Draining {
		// Ready must be false while draining; Status must say so.
	} else {
		t.Error("draining service still reports ready")
	}
}
