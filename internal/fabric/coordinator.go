package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"branchscope/internal/campaign"
	"branchscope/internal/durable"
	"branchscope/internal/engine"
)

// Coordinator defaults.
const (
	// DefaultLease is the longest a worker may go without streaming a
	// frame before its assignment is abandoned and reassigned.
	DefaultLease = 30 * time.Second
	// DefaultDispatchBudget is how many dispatch attempts a task gets
	// across all workers before it settles as a permanent failure.
	DefaultDispatchBudget = 3
	// DefaultWorkerBudget is how many consecutive dispatch failures a
	// worker survives before it is dropped even though its /readyz
	// probe keeps passing (every failure is probed; probe failure drops
	// the worker immediately).
	DefaultWorkerBudget = 3
	// stealCopies caps concurrent copies of one task under work
	// stealing: the original plus one thief. First settle wins; the
	// duplicate is byte-identical (task-derived seeds), so the race is
	// harmless by construction.
	stealCopies = 2
	// failBackoff/maxFailBackoff bound the pause a probe-passing worker
	// takes after a failed dispatch before re-taking work (doubling,
	// reset on success).
	failBackoff    = 50 * time.Millisecond
	maxFailBackoff = time.Second
)

// ErrLeaseExpired marks a dispatch that ended because the worker's
// lease timed out. requeue classifies errors wrapping it as
// reason=lease-expired in its per-task reassignment log lines.
var ErrLeaseExpired = errors.New("lease expired")

// requeueReason classifies why a batch came back: a nil dispatch error
// is a clean stream end without an outcome (worker shut down
// mid-batch), a lease expiry is distinguished from every other
// transport or protocol failure.
func requeueReason(dispatchErr error) string {
	switch {
	case dispatchErr == nil:
		return "worker-closed"
	case errors.Is(dispatchErr, ErrLeaseExpired):
		return "lease-expired"
	default:
		return "dispatch-failed"
	}
}

// Coordinator shards a task list across worker processes and merges
// their streamed outcomes into reports byte-identical to a
// single-process run. It only dispatches: its Run is a
// campaign.Executor, and campaign.Run journals, replays and crashes
// around it exactly as around a local run. See the package comment for
// the protocol and DESIGN §3.20 for the full semantics.
type Coordinator struct {
	// Workers are the worker base URLs ("http://127.0.0.1:9001"). The
	// fabric endpoints hang off each worker's obs address.
	Workers []string
	// Client performs the HTTP requests; nil uses a client with no
	// overall timeout (streams are bounded by the lease, not a request
	// deadline).
	Client *http.Client

	// Program/BaseSeed/Quick/Config are the run identity basis sent in
	// every assignment for the worker-side mismatch check.
	Program  string
	BaseSeed uint64
	Quick    bool
	Config   map[string]any
	// RunID is the run's causal identity, sent in every assignment for
	// the worker's log.
	RunID string

	// Lease bounds worker silence (0 = DefaultLease). Heartbeats and
	// outcomes both renew it.
	Lease time.Duration
	// StealAfter is how long a task may be in flight before an idle
	// worker duplicates it (work stealing); 0 = half the lease.
	StealAfter time.Duration
	// DispatchBudget / WorkerBudget override the defaults above; 0
	// means default.
	DispatchBudget int
	WorkerBudget   int
	// ProbeAttempts/ProbeBackoff shape the /readyz health probe a
	// failing worker must pass: up to ProbeAttempts GETs (0 = 3) with
	// doubling backoff starting at ProbeBackoff (0 = 100ms, capped 1s).
	ProbeAttempts int
	ProbeBackoff  time.Duration

	// Breakers, when non-nil, is the coordinator-central circuit
	// breaker: tasks are admitted here before dispatch and outcomes
	// observed here on settle, so a family tripping on one worker
	// propagates to all workers.
	Breakers *engine.BreakerSet

	// Local runs in-process whatever the workers leave unsettled: every
	// task when no worker is reachable at start, the remainder when
	// every worker has been dropped mid-run or the run is canceled.
	// Required.
	Local campaign.Executor

	// OnDegrade observes a degradation to local execution with a
	// human-readable reason.
	OnDegrade func(reason string)
	// Logf receives coordinator progress lines; nil discards them.
	Logf func(format string, args ...any)

	mu     sync.Mutex
	states map[string]*taskState
	order  []string
	onDone func(engine.Report)
}

// taskState is the coordinator-side life of one task.
type taskState struct {
	task engine.Task
	// copies counts in-flight dispatch copies (work stealing allows up
	// to stealCopies).
	copies int
	// attempts counts dispatch attempts that ended without a settle —
	// the permanent-failure budget's clock.
	attempts int
	// admitted records that the breaker admission decision was taken
	// (exactly once per task, like RunTask's).
	admitted bool
	// firstDispatch anchors the work-stealing age check.
	firstDispatch time.Time
	settled       bool
	rep           engine.Report
	lastErr       error
}

// Run executes tasks across the worker pool; it is a
// campaign.Executor. Each report goes to onDone as its task settles,
// whichever way it settles: streamed by a worker, refused by a breaker,
// out of dispatch budget, or run by the local fallback. Run returns one
// report per task in task order; per-task failures live in the reports.
func (c *Coordinator) Run(ctx context.Context, tasks []engine.Task, onDone func(engine.Report)) []engine.Report {
	if onDone == nil {
		onDone = func(engine.Report) {}
	}
	c.mu.Lock()
	c.onDone = onDone
	c.states = make(map[string]*taskState, len(tasks))
	c.order = c.order[:0]
	for _, t := range tasks {
		c.states[t.ID] = &taskState{task: t}
		c.order = append(c.order, t.ID)
	}
	c.mu.Unlock()

	healthy := c.probeAll(ctx)
	if len(healthy) == 0 {
		c.degrade(fmt.Sprintf("fabric: no reachable workers among %d configured; degrading to local in-process execution", len(c.Workers)))
	}
	var wg sync.WaitGroup
	for _, w := range healthy {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			c.workerLoop(ctx, url)
		}(w)
	}
	wg.Wait()

	// Whatever is still unsettled survived every worker (none reachable,
	// total worker loss, or cancellation): the local executor settles
	// the remainder, with the same bytes a worker would have streamed,
	// or with the cancellation reports a local run would give.
	if rest := c.unsettledTasks(); len(rest) > 0 {
		if len(healthy) > 0 && ctx.Err() == nil {
			c.degrade(fmt.Sprintf("fabric: all workers lost with %d task(s) unsettled; degrading to local in-process execution", len(rest)))
		}
		for _, rep := range c.Local(ctx, rest, onDone) {
			c.states[rep.Task.ID].rep = rep
		}
	}
	reports := make([]engine.Report, len(c.order))
	for i, id := range c.order {
		reports[i] = c.states[id].rep
	}
	return reports
}

// workerLoop drives one worker: pull a batch, dispatch it, settle the
// streamed outcomes, requeue what didn't settle; steal a straggler
// when idle; drop the worker on a transport failure that a /readyz
// probe cannot clear, or after WorkerBudget failures that can.
func (c *Coordinator) workerLoop(ctx context.Context, url string) {
	fails := 0
	backoff := failBackoff
	for ctx.Err() == nil {
		batch := c.take()
		if len(batch) == 0 {
			if c.done() {
				return
			}
			batch = c.steal()
			if len(batch) == 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(10 * time.Millisecond):
				}
				continue
			}
		}
		err := c.dispatch(ctx, url, batch)
		requeued := c.requeue(batch, err)
		if err != nil && ctx.Err() == nil {
			fails++
			c.logf("fabric: worker %s: dispatch failed (%d task(s) requeued): %v", url, requeued, err)
			// Probe on every failure, not after a strike count: a
			// SIGKILLed worker must leave the pool on its first failed
			// dispatch. Otherwise this loop hot-spins re-taking its own
			// requeued tasks against a dead socket, burning their
			// dispatch budgets before a busy healthy worker can claim
			// them.
			if !c.probe(ctx, url) {
				c.logf("fabric: worker %s: dropped after %d consecutive failure(s) and a failed /readyz probe", url, fails)
				return
			}
			if fails >= c.workerBudget() {
				c.logf("fabric: worker %s: dropped after %d consecutive dispatch failures despite passing /readyz", url, fails)
				return
			}
			// Alive but failing (a dead-air stream, a mid-batch reset):
			// back off before re-taking so idle healthy workers claim
			// the requeued tasks first.
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > maxFailBackoff {
				backoff = maxFailBackoff
			}
			continue
		}
		fails = 0
		backoff = failBackoff
	}
}

// take claims the next batch of never-dispatched tasks for a worker,
// deciding breaker admission (exactly once per task) on the way: a
// refused task settles immediately with the engine's skipped-breaker
// report, byte-identical to a single-process run's.
func (c *Coordinator) take() []*taskState {
	c.mu.Lock()
	chunk := c.chunkSize()
	var batch []*taskState
	var refused []*taskState
	for _, id := range c.order {
		st := c.states[id]
		if st.settled || st.copies > 0 {
			continue
		}
		if !st.admitted {
			st.admitted = true
			if !c.Breakers.Admit(st.task.BreakerFamily()) {
				st.settled = true
				st.rep = engine.SkippedBreakerReport(st.task, engine.DeriveSeed(c.BaseSeed, id))
				refused = append(refused, st)
				continue
			}
		}
		st.copies++
		if st.firstDispatch.IsZero() {
			st.firstDispatch = time.Now()
		}
		batch = append(batch, st)
		if len(batch) >= chunk {
			break
		}
	}
	c.mu.Unlock()
	// Settle refusals outside the lock, without a breaker Observe:
	// RunTask doesn't observe skipped tasks either.
	for _, st := range refused {
		c.onDone(st.rep)
	}
	return batch
}

// chunkSize balances initial sharding: roughly an even split of the
// remaining work across the pool, at least one. Called under mu.
func (c *Coordinator) chunkSize() int {
	unsettled := 0
	for _, st := range c.states {
		if !st.settled {
			unsettled++
		}
	}
	n := len(c.Workers)
	if n < 1 {
		n = 1
	}
	chunk := (unsettled + n - 1) / n
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// steal duplicates the longest-in-flight unsettled task for an idle
// worker, if it has been running past StealAfter and is not already
// duplicated. First settle wins; the loser's bytes are identical.
func (c *Coordinator) steal() []*taskState {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := time.Now().Add(-c.stealAfter())
	var oldest *taskState
	for _, id := range c.order {
		st := c.states[id]
		if st.settled || st.copies == 0 || st.copies >= stealCopies {
			continue
		}
		if st.firstDispatch.After(cutoff) {
			continue
		}
		if oldest == nil || st.firstDispatch.Before(oldest.firstDispatch) {
			oldest = st
		}
	}
	if oldest == nil {
		return nil
	}
	oldest.copies++
	c.logf("fabric: task %s duplicated: reason=stolen in_flight=%s",
		oldest.task.ID, time.Since(oldest.firstDispatch).Round(time.Millisecond))
	return []*taskState{oldest}
}

// requeue releases a batch's unsettled tasks after a dispatch ends.
// On a failed dispatch each unsettled task is charged one attempt;
// tasks exhausting the dispatch budget settle as permanent failures
// and their outcome feeds the breaker set like any other permanent
// failure — which is how a poison task that keeps killing workers
// trips its family's breaker for the whole pool.
func (c *Coordinator) requeue(batch []*taskState, dispatchErr error) int {
	reason := requeueReason(dispatchErr)
	c.mu.Lock()
	var exhausted []*taskState
	var released []string
	requeued := 0
	for _, st := range batch {
		if st.settled {
			continue
		}
		if st.copies > 0 {
			st.copies--
		}
		// A released task re-enters breaker admission on its next take:
		// if its family tripped while it was in flight (a poison batch
		// killing a worker), the reassignment is refused pool-wide
		// instead of re-running a family that is demonstrably broken.
		if st.copies == 0 {
			st.admitted = false
		}
		if dispatchErr == nil {
			// Clean stream end without an outcome (worker shut down
			// mid-batch): requeue without charging the budget.
			requeued++
			released = append(released, fmt.Sprintf("fabric: task %s requeued: reason=%s attempts=%d/%d",
				st.task.ID, reason, st.attempts, c.dispatchBudget()))
			continue
		}
		st.attempts++
		st.lastErr = dispatchErr
		if st.attempts >= c.dispatchBudget() && st.copies == 0 {
			st.settled = true
			err := fmt.Errorf("fabric: task %s: no worker completed it after %d dispatch attempts: %w",
				st.task.ID, st.attempts, st.lastErr)
			st.rep = engine.Report{
				Task:     st.task,
				Seed:     engine.DeriveSeed(c.BaseSeed, st.task.ID),
				Attempts: st.attempts,
				Err:      err,
				Outcome:  engine.FailureOutcome(err),
			}
			exhausted = append(exhausted, st)
			continue
		}
		requeued++
		released = append(released, fmt.Sprintf("fabric: task %s requeued: reason=%s attempts=%d/%d",
			st.task.ID, reason, st.attempts, c.dispatchBudget()))
	}
	c.mu.Unlock()
	// Every reassignment is logged with a structured reason so an
	// operator can tell lease expiries from transport failures from
	// clean worker shutdowns when reconstructing where a task bounced.
	for _, line := range released {
		c.logf("%s", line)
	}
	for _, st := range exhausted {
		c.Breakers.Observe(st.task.BreakerFamily(), st.rep.Outcome)
		c.onDone(st.rep)
	}
	return requeued
}

// dispatch POSTs one assignment and consumes its outcome stream under
// the lease: any frame (heartbeat or outcome) renews the timer; a
// lease expiry cancels the request, which surfaces here as a read
// error and sends the batch back through requeue.
func (c *Coordinator) dispatch(ctx context.Context, url string, batch []*taskState) error {
	ids := make([]string, len(batch))
	for i, st := range batch {
		ids[i] = st.task.ID
	}
	asn := Assignment{
		Schema:   Schema,
		RunID:    c.RunID,
		Program:  c.Program,
		BaseSeed: c.BaseSeed,
		Quick:    c.Quick,
		Config:   c.Config,
		Tasks:    ids,
		LeaseMS:  c.lease().Milliseconds(),
	}
	body, err := json.Marshal(asn)
	if err != nil {
		return fmt.Errorf("fabric: encoding assignment: %w", err)
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, url+RunPath, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fabric: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(req)
	if err != nil {
		return fmt.Errorf("fabric: dispatch to %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fabric: worker %s refused assignment: %s (%s)", url, bytes.TrimSpace(msg), resp.Status)
	}

	// The lease timer: reset on every frame, cancel the stream when it
	// fires. Renewal is piggybacked on the stream itself — heartbeats
	// while a task runs, outcome records as tasks finish.
	var expired atomic.Bool
	lease := time.AfterFunc(c.lease(), func() {
		expired.Store(true)
		cancel()
	})
	defer lease.Stop()

	err = c.consume(resp.Body, func() { lease.Reset(c.lease()) })
	if expired.Load() {
		return fmt.Errorf("fabric: worker %s: %w after %s of silence", url, ErrLeaseExpired, c.lease())
	}
	if err != nil {
		return fmt.Errorf("fabric: worker %s: %w", url, err)
	}
	return nil
}

// consume folds one outcome stream into the run: every frame calls
// renew, every task frame settles its task, and the first frame with a
// bad checksum, an unknown kind or an undecodable record ends the
// stream with an error.
func (c *Coordinator) consume(stream io.Reader, renew func()) error {
	sc := bufio.NewScanner(stream)
	sc.Buffer(make([]byte, 64*1024), 32<<20)
	for sc.Scan() {
		renew()
		frame, err := durable.ParseFrame(sc.Bytes())
		if err != nil {
			return err
		}
		switch frame.Kind {
		case KindLease:
			// Renewal only; payload names the still-running task.
		case KindTask:
			var rec campaign.TaskRecord
			if err := json.Unmarshal(frame.Payload, &rec); err != nil {
				return fmt.Errorf("bad task record: %w", err)
			}
			c.settle(rec)
		default:
			return fmt.Errorf("unknown frame kind %q", frame.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading outcome stream: %w", err)
	}
	return nil
}

// settle records one streamed outcome: first settle wins (a stolen
// duplicate arriving later is dropped — identical bytes, so nothing is
// lost), the breaker set observes the outcome, and the report is
// rebuilt through campaign.ReportOf, the path a resumed campaign
// replays through, so it renders byte-identically to a single-process
// run's.
func (c *Coordinator) settle(rec campaign.TaskRecord) {
	c.mu.Lock()
	st, ok := c.states[rec.ID]
	if !ok || st.settled {
		c.mu.Unlock()
		return
	}
	st.settled = true
	st.rep = campaign.ReportOf(st.task, rec)
	c.mu.Unlock()

	c.Breakers.Observe(st.task.BreakerFamily(), rec.Outcome)
	c.onDone(st.rep)
}

// probeAll health-checks the configured workers and returns the
// reachable ones.
func (c *Coordinator) probeAll(ctx context.Context) []string {
	var healthy []string
	for _, w := range c.Workers {
		if c.probe(ctx, w) {
			healthy = append(healthy, w)
		} else {
			c.logf("fabric: worker %s unreachable at startup", w)
		}
	}
	sort.Strings(healthy)
	return healthy
}

// probe GETs a worker's /readyz with capped doubling backoff.
func (c *Coordinator) probe(ctx context.Context, url string) bool {
	attempts := c.ProbeAttempts
	if attempts <= 0 {
		attempts = 3
	}
	backoff := c.ProbeBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return false
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > time.Second {
				backoff = time.Second
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return false
		}
		resp, err := c.client().Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return true
		}
	}
	return false
}

// unsettledTasks returns the tasks still unsettled, in task order.
func (c *Coordinator) unsettledTasks() []engine.Task {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rest []engine.Task
	for _, id := range c.order {
		if st := c.states[id]; !st.settled {
			rest = append(rest, st.task)
		}
	}
	return rest
}

// done reports whether every task has settled.
func (c *Coordinator) done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.states {
		if !st.settled {
			return false
		}
	}
	return true
}

func (c *Coordinator) degrade(reason string) {
	c.logf("%s", reason)
	if c.OnDegrade != nil {
		c.OnDegrade(reason)
	}
}

func (c *Coordinator) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

func (c *Coordinator) lease() time.Duration {
	if c.Lease > 0 {
		return c.Lease
	}
	return DefaultLease
}

func (c *Coordinator) stealAfter() time.Duration {
	if c.StealAfter > 0 {
		return c.StealAfter
	}
	return c.lease() / 2
}

func (c *Coordinator) dispatchBudget() int {
	if c.DispatchBudget > 0 {
		return c.DispatchBudget
	}
	return DefaultDispatchBudget
}

func (c *Coordinator) workerBudget() int {
	if c.WorkerBudget > 0 {
		return c.WorkerBudget
	}
	return DefaultWorkerBudget
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
