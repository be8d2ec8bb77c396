package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"

	"branchscope/internal/campaign"
	"branchscope/internal/cliutil"
	"branchscope/internal/durable"
	"branchscope/internal/engine"
	"branchscope/internal/experiments"
	"branchscope/internal/obs"
	"branchscope/internal/runstore"
)

// Limits is the admission-control surface: how much concurrent and
// queued work the service accepts, globally and per tenant. Zero
// fields take the defaults in withDefaults.
type Limits struct {
	// Jobs bounds jobs running concurrently across all tenants.
	Jobs int
	// Queue bounds jobs queued across all tenants; submissions beyond
	// it shed with 429.
	Queue int
	// TenantRunning bounds one tenant's concurrently running jobs;
	// submissions beyond it queue (fair scheduling), they don't shed.
	TenantRunning int
	// TenantQueue bounds one tenant's queued jobs; submissions beyond
	// it shed with 429 so a single tenant cannot fill the global queue.
	TenantQueue int
}

// withDefaults resolves zero limits to the service defaults.
func (l Limits) withDefaults() Limits {
	if l.Jobs <= 0 {
		l.Jobs = 2
	}
	if l.Queue <= 0 {
		l.Queue = 16
	}
	if l.TenantRunning <= 0 {
		l.TenantRunning = 1
	}
	if l.TenantQueue <= 0 {
		l.TenantQueue = 4
	}
	return l
}

// Config wires a Service to its host process.
type Config struct {
	// Program is the serving program name ("experiments"); specs naming
	// another program are refused.
	Program string
	// Tasks is the full task registry jobs select from, in registry
	// order (an empty spec task list runs all of them, like the CLI).
	Tasks []engine.Task
	// Pool is the shared execution pool all jobs run on. Caller-runs
	// overflow (see engine.Pool) means a saturated pool degrades
	// parallelism, never liveness, so jobs cannot deadlock each other.
	Pool *engine.Pool
	// ArchiveDir, when set, archives each completed job under
	// <ArchiveDir>/<tenant>/<run-id>/ via runstore.Archiver.
	ArchiveDir string
	// JournalPath, when set, journals submissions to a crash-safe file:
	// after a restart, queued jobs re-enqueue and jobs that were running
	// settle failed with an explicit reason. Empty runs in-memory only.
	JournalPath string
	Limits      Limits
	// Log receives progress events; nil discards them.
	Log *slog.Logger
}

// JobStatus is the client-visible view of one job.
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// RunID is the job's causal run identity — identical to the run ID
	// a direct CLI run of the same spec derives (see runstore).
	RunID  string `json:"run_id"`
	State  string `json:"state"`
	Reason string `json:"reason,omitempty"`
}

// SubmitError maps an admission failure to its HTTP response.
type SubmitError struct {
	// Code is the HTTP status (400 invalid, 429 shed, 503 draining,
	// 500 internal).
	Code int
	// RetryAfter, when > 0, is the Retry-After header in seconds.
	RetryAfter int
	// Scope names the quota a 429 hit: "tenant-queue" or "global-queue".
	Scope string
	Err   error
}

// Error implements error.
func (e *SubmitError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause.
func (e *SubmitError) Unwrap() error { return e.Err }

// ErrDraining rejects submissions while the service drains for
// shutdown.
var ErrDraining = errors.New("svc: service is draining for shutdown")

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("svc: no such job")

// stream is one job's replayable broadcast of ledger-record lines:
// subscribers replay everything from the start, then follow appends
// until the stream closes (the job settled).
type stream struct {
	mu     sync.Mutex
	lines  [][]byte
	closed bool
	wake   chan struct{}
}

func newStream() *stream { return &stream{wake: make(chan struct{})} }

// wakeLocked signals every blocked subscriber; callers hold mu.
func (st *stream) wakeLocked() {
	close(st.wake)
	st.wake = make(chan struct{})
}

// append publishes one line.
func (st *stream) append(line []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.lines = append(st.lines, line)
	st.wakeLocked()
}

// close ends the stream; subscribers see EOF after the last line.
func (st *stream) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.closed {
		st.closed = true
		st.wakeLocked()
	}
}

// next blocks until line i exists (returned with ok=true), the stream
// closes with fewer lines (ok=false: EOF), or ctx ends.
func (st *stream) next(ctx context.Context, i int) ([]byte, bool, error) {
	for {
		st.mu.Lock()
		if i < len(st.lines) {
			line := st.lines[i]
			st.mu.Unlock()
			return line, true, nil
		}
		if st.closed {
			st.mu.Unlock()
			return nil, false, nil
		}
		wake := st.wake
		st.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// job is one submitted campaign job. Mutable fields are guarded by the
// service mutex.
type job struct {
	id     string
	tenant string
	spec   Spec
	runID  string
	tasks  []engine.Task

	state    string
	reason   string
	canceled bool // client requested cancellation
	cancel   context.CancelFunc
	stream   *stream
}

// statusLocked renders the client view; callers hold the service mutex.
func (j *job) statusLocked() JobStatus {
	return JobStatus{ID: j.id, Tenant: j.tenant, RunID: j.runID, State: j.state, Reason: j.reason}
}

// Service is the multi-tenant campaign job service. Construct with
// New, mount Handler on the obs server, then Start it; Drain on
// shutdown.
type Service struct {
	started atomic.Bool

	program    string
	registry   map[string]engine.Task
	regOrder   []string
	pool       *engine.Pool
	archiveDir string
	limits     Limits
	log        *slog.Logger
	jnl        *durable.Appender

	mu           sync.Mutex
	jobs         map[string]*job
	order        []*job            // submission order, for listings
	queues       map[string][]*job // per-tenant FIFO of queued jobs
	tenantSeen   []string          // tenant first-seen order, for round-robin
	lastServed   string            // tenant that last received a slot
	running      map[string]int    // per-tenant running counts
	totalRunning int
	totalQueued  int
	seq          int
	shed         int64
	nDone        int
	nFailed      int
	nCanceled    int
	draining     bool
	wg           sync.WaitGroup
}

// New allocates an unstarted service. The handler can be mounted
// immediately (it answers 503 until Start); Start wires the config and
// begins scheduling.
func New() *Service { return &Service{} }

// Start wires the service, replays the journal (re-enqueueing queued
// jobs, settling was-running jobs as failed with a reason), and starts
// scheduling.
func (s *Service) Start(cfg Config) error {
	if s.started.Load() {
		return errors.New("svc: service already started")
	}
	s.program = cfg.Program
	s.pool = cfg.Pool
	s.archiveDir = cfg.ArchiveDir
	s.limits = cfg.Limits.withDefaults()
	s.log = cfg.Log
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.registry = make(map[string]engine.Task, len(cfg.Tasks))
	for _, t := range cfg.Tasks {
		s.registry[t.ID] = t
		s.regOrder = append(s.regOrder, t.ID)
	}
	s.jobs = map[string]*job{}
	s.queues = map[string][]*job{}
	s.running = map[string]int{}

	if cfg.JournalPath != "" {
		jnl, recovered, err := openJournal(cfg.JournalPath)
		if err != nil {
			return err
		}
		s.jnl = jnl
		s.mu.Lock()
		for _, rj := range recovered {
			s.recoverLocked(rj)
		}
		s.mu.Unlock()
	}
	s.started.Store(true)
	s.mu.Lock()
	s.scheduleLocked()
	s.mu.Unlock()
	return nil
}

// Close releases the journal. Call after Drain.
func (s *Service) Close() error { return s.jnl.Close() }

// recoverLocked reconstructs one journaled job at startup.
func (s *Service) recoverLocked(rj recoveredJob) {
	j := &job{
		id:     rj.rec.ID,
		tenant: rj.rec.Spec.Tenant,
		spec:   rj.rec.Spec,
		runID:  rj.rec.RunID,
		stream: newStream(),
	}
	if n := jobSeq(j.id); n > s.seq {
		s.seq = n
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.seeTenantLocked(j.tenant)
	switch {
	case rj.state != "":
		j.state, j.reason = rj.state, rj.reason
		s.countSettledLocked(rj.state)
		j.stream.close()
	case rj.started:
		// The job was running when the previous process died. Its
		// partial work is unrecoverable (and its archive was never
		// written), so it settles failed with an explicit reason rather
		// than silently vanishing or re-running under a stale stream.
		j.state = StateFailed
		j.reason = "service restarted while job was running"
		s.countSettledLocked(StateFailed)
		j.stream.close()
		s.journalDone(j)
		s.log.Warn("recovered job settled failed", "job", j.id, "tenant", j.tenant, "reason", j.reason)
	default:
		tasks, err := s.resolve(j.spec.Tasks)
		if err != nil {
			j.state, j.reason = StateFailed, err.Error()
			s.countSettledLocked(StateFailed)
			j.stream.close()
			s.journalDone(j)
			return
		}
		j.tasks = tasks
		j.state = StateQueued
		s.enqueueLocked(j)
		s.log.Info("recovered queued job", "job", j.id, "tenant", j.tenant, "run_id", j.runID)
	}
}

// jobSeq parses the numeric suffix of a job ID (0 when malformed).
func jobSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// resolve maps a spec's task selection onto the registry: empty means
// the full registry in order, exactly like a bare CLI invocation.
func (s *Service) resolve(sel []string) ([]engine.Task, error) {
	if len(sel) == 0 {
		sel = s.regOrder
	}
	tasks := make([]engine.Task, 0, len(sel))
	for _, id := range sel {
		t, ok := s.registry[id]
		if !ok {
			return nil, fmt.Errorf("svc: unknown experiment %q", id)
		}
		tasks = append(tasks, t)
	}
	return tasks, nil
}

// Submit validates and admits one job. On success the job is durably
// journaled and either started or queued; the returned status carries
// the run ID the job's outputs will be archived under. Admission
// failures return a *SubmitError carrying the HTTP mapping.
func (s *Service) Submit(sp Spec) (JobStatus, error) {
	if !s.started.Load() {
		return JobStatus{}, &SubmitError{Code: 503, RetryAfter: 1, Err: errors.New("svc: service is starting")}
	}
	if sp.Program == "" {
		sp.Program = s.program
	}
	if err := sp.Validate(s.program); err != nil {
		return JobStatus{}, &SubmitError{Code: 400, Err: err}
	}
	tasks, err := s.resolve(sp.Tasks)
	if err != nil {
		return JobStatus{}, &SubmitError{Code: 400, Err: err}
	}
	identity, err := sp.Plan(tasks).Identity(sp.Flags())
	if err != nil {
		return JobStatus{}, &SubmitError{Code: 400, Err: err}
	}
	runID := identity.RunID()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.shed++
		return JobStatus{}, &SubmitError{Code: 503, RetryAfter: 30, Err: ErrDraining}
	}
	if len(s.queues[sp.Tenant]) >= s.limits.TenantQueue {
		s.shed++
		return JobStatus{}, &SubmitError{
			Code: 429, RetryAfter: 5, Scope: "tenant-queue",
			Err: fmt.Errorf("svc: tenant %q already has %d job(s) queued (limit %d)",
				sp.Tenant, len(s.queues[sp.Tenant]), s.limits.TenantQueue),
		}
	}
	if s.totalQueued >= s.limits.Queue {
		s.shed++
		return JobStatus{}, &SubmitError{
			Code: 429, RetryAfter: 5, Scope: "global-queue",
			Err: fmt.Errorf("svc: global queue is full (%d queued, limit %d)", s.totalQueued, s.limits.Queue),
		}
	}
	s.seq++
	j := &job{
		id:     fmt.Sprintf("job-%06d", s.seq),
		tenant: sp.Tenant,
		spec:   sp,
		runID:  runID,
		tasks:  tasks,
		state:  StateQueued,
		stream: newStream(),
	}
	// The submit record must be durable before the client sees 201:
	// a 201'd job survives a restart, full stop.
	if err := s.jnl.Append(kindJob, jobRecord{ID: j.id, RunID: runID, Spec: sp}); err != nil {
		return JobStatus{}, &SubmitError{Code: 500, Err: err}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.seeTenantLocked(sp.Tenant)
	s.enqueueLocked(j)
	s.log.Info("job submitted", "job", j.id, "tenant", j.tenant, "run_id", runID, "tasks", len(tasks))
	s.scheduleLocked()
	return j.statusLocked(), nil
}

// seeTenantLocked records a tenant's first appearance for round-robin.
func (s *Service) seeTenantLocked(t string) {
	for _, seen := range s.tenantSeen {
		if seen == t {
			return
		}
	}
	s.tenantSeen = append(s.tenantSeen, t)
}

// enqueueLocked appends a queued job to its tenant FIFO.
func (s *Service) enqueueLocked(j *job) {
	s.queues[j.tenant] = append(s.queues[j.tenant], j)
	s.totalQueued++
}

// scheduleLocked starts queued jobs while global capacity remains,
// rotating round-robin over tenants so no tenant's backlog can starve
// another's — per-tenant fairness is positional, not proportional.
func (s *Service) scheduleLocked() {
	if !s.started.Load() || s.draining {
		return
	}
	for s.totalRunning < s.limits.Jobs {
		j := s.nextLocked()
		if j == nil {
			return
		}
		s.startLocked(j)
	}
}

// nextLocked pops the next runnable job: scanning tenants round-robin
// starting AFTER the tenant that last received a slot, so freed
// capacity rotates to waiting tenants before the last-served tenant's
// backlog — even when a tenant first appeared after that slot was
// handed out.
func (s *Service) nextLocked() *job {
	n := len(s.tenantSeen)
	start := 0
	for i, t := range s.tenantSeen {
		if t == s.lastServed {
			start = i + 1
			break
		}
	}
	for k := 0; k < n; k++ {
		t := s.tenantSeen[(start+k)%n]
		if s.running[t] >= s.limits.TenantRunning {
			continue
		}
		q := s.queues[t]
		if len(q) == 0 {
			continue
		}
		s.queues[t] = q[1:]
		s.totalQueued--
		s.lastServed = t
		return q[0]
	}
	return nil
}

// startLocked transitions a job to running and launches its executor.
func (s *Service) startLocked(j *job) {
	j.state = StateRunning
	s.running[j.tenant]++
	s.totalRunning++
	if err := s.jnl.Append(kindStart, markRecord{ID: j.id}); err != nil {
		s.log.Error("journaling job start", "job", j.id, "err", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	s.log.Info("job started", "job", j.id, "tenant", j.tenant, "run_id", j.runID)
	s.wg.Add(1)
	go s.run(j, ctx, cancel)
}

// run executes one job in its own isolated simulator instance: its own
// runner, breaker set, retry policy, chaos overrides, deadline context
// and panic recovery, sharing only the caller-runs pool with other
// jobs. The job's plan is the one a direct CLI run of its spec
// executes, so its stream records and archive come out of the same
// Record and Settle.
func (s *Service) run(j *job, ctx context.Context, cancel context.CancelFunc) {
	defer s.wg.Done()
	defer cancel()
	defer func() {
		// A panic that escapes the engine's per-task recovery (or hits
		// the service's own code) fails this job only.
		if p := recover(); p != nil {
			s.settle(j, StateFailed, fmt.Sprintf("job executor panicked: %v", p))
		}
	}()
	sp := j.spec
	if d := sp.Deadline(); d > 0 {
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithTimeout(ctx, d)
		defer dcancel()
	}
	// The spec's chaos plan and retry budget ride the job's context
	// only, never process state: no job inherits another tenant's
	// knobs or the host CLI's.
	chaosPlan, err := sp.Flags().ChaosPlan(sp.Seed())
	if err != nil {
		s.settle(j, StateFailed, err.Error())
		return
	}
	ctx = experiments.WithOverrides(ctx, sp.Flags().Overrides(chaosPlan, nil))

	plan := sp.Plan(j.tasks)
	plan.Pool = s.pool
	plan.LedgerConfig = map[string]any{"quick": sp.Quick, "tenant": sp.Tenant, "job": j.id}
	runner := plan.Runner(sp.Flags())
	runner.OnStart = func(t engine.Task, seed uint64) {
		s.log.Info("job task start", "job", j.id, "tenant", j.tenant, "id", t.ID, "seed", seed)
	}
	runner.OnDone = func(rep engine.Report) { s.streamReport(j, plan, rep) }
	reports := runner.RunSuite(ctx, j.tasks, engine.Config{Quick: sp.Quick, Seed: sp.Seed()})

	s.mu.Lock()
	userCanceled := j.canceled
	s.mu.Unlock()
	switch {
	case userCanceled:
		s.settle(j, StateCanceled, "canceled by client")
	case ctx.Err() != nil:
		reason := "job context canceled during drain"
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			reason = fmt.Sprintf("job deadline (%s) exceeded", sp.Deadline())
		}
		s.settle(j, StateFailed, reason)
	default:
		if err := s.archive(j, plan, runner, reports); err != nil {
			s.settle(j, StateFailed, fmt.Sprintf("archiving results: %v", err))
			return
		}
		reason := ""
		if n := engine.Failed(reports); n > 0 {
			reason = fmt.Sprintf("%d of %d task(s) failed", n, len(reports))
		}
		s.settle(j, StateDone, reason)
	}
}

// streamReport publishes one finished task as a branchscope.ledger/v1
// line on the job's stream — the record a file ledger holds, plus the
// result rows so stream clients get data, not just digests.
func (s *Service) streamReport(j *job, plan cliutil.Plan, rep engine.Report) {
	rec := plan.Record(rep, nil)
	rec.Schema, rec.RunID = obs.LedgerSchema, j.runID
	if rep.Err == nil {
		rec.Rows = campaign.RecordOf(rep).Rows
	}
	line, err := json.Marshal(rec)
	if err != nil {
		s.log.Error("encoding stream record", "job", j.id, "id", rep.Task.ID, "err", err)
		return
	}
	j.stream.append(line)
	s.log.Info("job task done", "job", j.id, "tenant", j.tenant, "id", rep.Task.ID, "outcome", rec.Outcome)
}

// archive writes the job's deterministic outputs — task outcomes,
// report and export blobs, manifest — under <dir>/<tenant>/<run-id>/,
// settled exactly as a direct CLI run of the spec settles its archive.
func (s *Service) archive(j *job, plan cliutil.Plan, runner *engine.Runner, reports []engine.Report) error {
	if s.archiveDir == "" {
		return nil
	}
	identity, err := plan.Identity(j.spec.Flags())
	if err != nil {
		return err
	}
	arc := runstore.New(filepath.Join(s.archiveDir, j.tenant), identity)
	if err := plan.Settle(arc, reports, runner.Breakers); err != nil {
		return err
	}
	dir, err := arc.Write()
	if err != nil {
		return err
	}
	s.log.Info("job archived", "job", j.id, "tenant", j.tenant, "dir", dir, "run_id", j.runID)
	return nil
}

// settle finalizes a job's state exactly once, frees its running slot,
// journals the outcome, closes the stream, and schedules successors.
func (s *Service) settle(j *job, state, reason string) {
	s.mu.Lock()
	if settledState(j.state) {
		s.mu.Unlock()
		return
	}
	wasRunning := j.state == StateRunning
	j.state, j.reason = state, reason
	if wasRunning {
		s.running[j.tenant]--
		s.totalRunning--
	}
	s.countSettledLocked(state)
	s.journalDone(j)
	s.scheduleLocked()
	s.mu.Unlock()
	j.stream.close()
	s.log.Info("job settled", "job", j.id, "tenant", j.tenant, "state", state, "reason", reason)
}

// journalDone appends the settlement record; best-effort (the
// in-memory state is already authoritative for this process's life).
func (s *Service) journalDone(j *job) {
	if err := s.jnl.Append(kindDone, markRecord{ID: j.id, State: j.state, Reason: j.reason}); err != nil {
		s.log.Error("journaling job settlement", "job", j.id, "err", err)
	}
}

// countSettledLocked bumps the settled-state counters.
func (s *Service) countSettledLocked(state string) {
	switch state {
	case StateDone:
		s.nDone++
	case StateFailed:
		s.nFailed++
	case StateCanceled:
		s.nCanceled++
	}
}

// Cancel cancels a job: a queued job settles canceled immediately, a
// running one gets its context canceled and settles when its executor
// notices. Canceling a settled job is a no-op returning its state.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	settleQueued := false
	switch j.state {
	case StateQueued:
		q := s.queues[j.tenant]
		for i := range q {
			if q[i] == j {
				s.queues[j.tenant] = append(append([]*job{}, q[:i]...), q[i+1:]...)
				s.totalQueued--
				break
			}
		}
		j.canceled = true
		settleQueued = true
	case StateRunning:
		j.canceled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	if settleQueued {
		s.settle(j, StateCanceled, "canceled by client before start")
	}
	return s.Get(id)
}

// Get returns one job's status.
func (s *Service) Get(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	return j.statusLocked(), nil
}

// List returns job statuses in submission order, optionally filtered
// by tenant.
func (s *Service) List(tenant string) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []JobStatus{}
	for _, j := range s.order {
		if tenant != "" && j.tenant != tenant {
			continue
		}
		out = append(out, j.statusLocked())
	}
	return out
}

// subscribe returns a job's stream for following.
func (s *Service) subscribe(id string) (*stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	return j.stream, nil
}

// Draining reports whether the service has begun draining.
func (s *Service) Draining() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Saturated reports whether the global queue is full — the /readyz
// signal that a load balancer should send new submissions elsewhere.
func (s *Service) Saturated() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalQueued >= s.limits.Queue
}

// Ready is the /readyz gate: started, not draining, queue not full.
func (s *Service) Ready() bool {
	return s != nil && s.started.Load() && !s.Draining() && !s.Saturated()
}

// Status renders the /statusz service section; nil before Start.
func (s *Service) Status() *obs.ServiceStatus {
	if s == nil || !s.started.Load() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return &obs.ServiceStatus{
		Tenants:   len(s.tenantSeen),
		Running:   s.totalRunning,
		Queued:    s.totalQueued,
		Done:      s.nDone,
		Failed:    s.nFailed,
		Canceled:  s.nCanceled,
		Shed:      s.shed,
		QueueCap:  s.limits.Queue,
		Saturated: s.totalQueued >= s.limits.Queue,
		Draining:  s.draining,
	}
}

// Drain stops admissions and scheduling, lets running jobs finish
// until ctx expires, then cancels what remains and waits for every
// executor to settle. Queued jobs stay journaled as queued: a
// restarted service re-enqueues them.
func (s *Service) Drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.order {
			if j.state == StateRunning && j.cancel != nil {
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-done
	}
	s.log.Info("service drained", "running", 0, "queued", s.queuedCount())
}

// queuedCount reports the current queue depth.
func (s *Service) queuedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalQueued
}
