package obs

import (
	"sync"
	"time"
)

// StatusSchema versions the /statusz JSON document.
const StatusSchema = "branchscope.statusz/v1"

// TaskStatus is one task's live state in a Status document.
type TaskStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // pending | running | stuck | done | failed
	// Seed is the derived seed the task runs with (0 until it starts).
	Seed uint64 `json:"seed,omitempty"`
	// WallSeconds is the task's duration once finished, or its age so
	// far while running.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Outcome is the finished task's engine classification ("ok",
	// "retried-ok", "exhausted", "timeout", "canceled", ...) — finer
	// grained than State, which only distinguishes done from failed.
	Outcome string `json:"outcome,omitempty"`
	Error   string `json:"error,omitempty"`
}

// BreakerStatus mirrors one family's circuit-breaker state for
// /statusz. It deliberately duplicates the engine's shape instead of
// importing it — obs stays a leaf the engine never depends on.
type BreakerStatus struct {
	Family string `json:"family"`
	State  string `json:"state"` // closed | open
	// ConsecutiveFailures is the current run of permanent failures.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Skipped counts tasks short-circuited while the breaker was open.
	Skipped int `json:"skipped"`
}

// LeakageStatus is the /statusz channel-quality section, filled by the
// obs server from the leakage.* gauges of the live metrics registry.
// Like BreakerStatus it mirrors a shape (leakage.Report's headline
// numbers) instead of importing the package — obs stays a leaf.
type LeakageStatus struct {
	// Windows is the completed attack-window count.
	Windows uint64 `json:"windows"`
	// BitErrorRate through SNR echo the latest covert cell's channel-
	// quality gauges; see internal/leakage for definitions.
	BitErrorRate          float64 `json:"bit_error_rate"`
	MutualInformationBits float64 `json:"mutual_information_bits"`
	CapacityBits          float64 `json:"capacity_bits"`
	SNR                   float64 `json:"snr"`
}

// ServiceStatus is the /statusz section for the multi-tenant campaign
// job service (internal/svc). Like BreakerStatus it mirrors the
// shape instead of importing the package — obs stays a leaf.
type ServiceStatus struct {
	// Tenants counts distinct tenants seen since startup.
	Tenants int `json:"tenants"`
	// Running/Queued are current occupancy; Done/Failed/Canceled count
	// settled jobs.
	Running  int `json:"running"`
	Queued   int `json:"queued"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// Shed counts submissions rejected by admission control (429/503).
	Shed int64 `json:"shed"`
	// QueueCap is the global queue bound; Saturated means the queue is
	// full (and /readyz degrades).
	QueueCap  int  `json:"queue_cap"`
	Saturated bool `json:"saturated"`
	Draining  bool `json:"draining"`
}

// HistogramStatus summarizes one metrics histogram for /statusz.
type HistogramStatus struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   uint64  `json:"max"`
}

// Status is the /statusz document: live suite progress plus process
// identity. It deliberately lives outside the simulated machine — wall
// clocks here never feed back into experiment results.
type Status struct {
	Schema string `json:"schema"`
	// RunID is the run's causal identity (see internal/runstore),
	// present whether or not the run archives anything.
	RunID         string  `json:"run_id,omitempty"`
	Program       string  `json:"program"`
	PID           int     `json:"pid"`
	GoVersion     string  `json:"go"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	BaseSeed      uint64  `json:"base_seed"`
	Quick         bool    `json:"quick"`
	Pending       int     `json:"pending"`
	Running       int     `json:"running"`
	Done          int     `json:"done"`
	Failed        int     `json:"failed"`
	// Stuck counts tasks currently past their soft watchdog deadline
	// (they also count as Running: stuck is advisory, not terminal).
	Stuck int `json:"stuck,omitempty"`
	// Replayed counts tasks whose outcome was reconstructed from a
	// campaign journal instead of a fresh run (they also count as Done).
	Replayed int          `json:"replayed,omitempty"`
	Tasks    []TaskStatus `json:"tasks"`
	// Breakers lists families with tripped-or-tripping circuit
	// breakers; filled by the serving program, not the tracker.
	Breakers []BreakerStatus `json:"breakers,omitempty"`
	// DegradedProbes counts attack sessions whose health gate fell back
	// from PMC to timing probing; filled by the obs server from the
	// core.probe.degradations counter, not the tracker.
	DegradedProbes uint64 `json:"degraded_probes,omitempty"`
	// Leakage carries the live channel-quality numbers once at least
	// one attack window has completed; filled by the obs server from
	// the leakage.* metrics, not the tracker.
	Leakage *LeakageStatus `json:"leakage,omitempty"`
	// Histograms carries p50/p95/p99 summaries of the live metrics
	// registry; filled by the obs server, not the tracker.
	Histograms []HistogramStatus `json:"histograms,omitempty"`
	// LedgerTorn reports that the session found — and truncated — a torn
	// final record in a pre-existing ledger it reopened for append (see
	// durable.Heal). Surfaced here so the data loss is visible instead
	// of silent.
	LedgerTorn bool `json:"ledger_torn,omitempty"`
	// Service carries the campaign job service's occupancy and
	// admission-control state when the process runs one; filled by the
	// serving program, not the tracker.
	Service *ServiceStatus `json:"service,omitempty"`
}

// Tracker accumulates per-task progress from engine runner hooks and
// renders it as a Status. All methods are safe for concurrent use (the
// runner invokes hooks from worker goroutines) and no-ops on a nil
// tracker.
type Tracker struct {
	program  string
	baseSeed uint64
	quick    bool
	start    time.Time

	mu      sync.Mutex
	order   []string
	tasks   map[string]*TaskStatus
	started map[string]time.Time
}

// NewTracker declares the suite up front: every id starts pending, so
// /statusz shows the full suite shape from the first scrape.
func NewTracker(program string, baseSeed uint64, quick bool, ids []string) *Tracker {
	t := &Tracker{
		program:  program,
		baseSeed: baseSeed,
		quick:    quick,
		start:    time.Now(),
		tasks:    make(map[string]*TaskStatus, len(ids)),
		started:  make(map[string]time.Time),
	}
	for _, id := range ids {
		t.add(id)
	}
	return t
}

// add registers id if new; callers hold mu or have exclusive access.
func (t *Tracker) add(id string) *TaskStatus {
	ts := t.tasks[id]
	if ts == nil {
		ts = &TaskStatus{ID: id, State: "pending"}
		t.tasks[id] = ts
		t.order = append(t.order, id)
	}
	return ts
}

// Begin marks a task running with its derived seed.
func (t *Tracker) Begin(id string, seed uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.add(id)
	ts.State = "running"
	ts.Seed = seed
	t.started[id] = time.Now()
}

// MarkStuck flags a running task as past its soft watchdog deadline.
// The state is advisory: End overwrites it with the task's real
// outcome, and marking a task that is not currently running is a no-op
// (the watchdog may race the task's own completion).
func (t *Tracker) MarkStuck(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ts := t.add(id); ts.State == "running" {
		ts.State = "stuck"
	}
}

// End marks a task done or failed. outcome is the engine's fine-grained
// classification (Report.Outcome). A task whose outcome is a success
// class ("ok", "retried-ok") ends done even with retries behind it;
// everything else with a non-nil err is failed.
func (t *Tracker) End(id string, wall time.Duration, outcome string, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.add(id)
	ts.State = "done"
	ts.WallSeconds = wall.Seconds()
	ts.Outcome = outcome
	if err != nil {
		ts.State = "failed"
		ts.Error = err.Error()
	}
	delete(t.started, id)
}

// Ready reports whether the suite has been declared — the /readyz
// answer. A nil tracker is never ready.
func (t *Tracker) Ready() bool { return t != nil }

// Status renders the current progress. Safe on a nil tracker (an empty
// document), so the obs server works without one.
func (t *Tracker) Status() Status {
	s := Status{Schema: StatusSchema}
	if t == nil {
		return s
	}
	s.Program = t.program
	s.BaseSeed = t.baseSeed
	s.Quick = t.quick
	s.UptimeSeconds = time.Since(t.start).Seconds()

	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	for _, id := range t.order {
		ts := *t.tasks[id]
		if ts.State == "running" || ts.State == "stuck" {
			ts.WallSeconds = now.Sub(t.started[id]).Seconds()
		}
		switch ts.State {
		case "pending":
			s.Pending++
		case "running":
			s.Running++
		case "stuck":
			s.Running++
			s.Stuck++
		case "done":
			s.Done++
			if ts.Outcome == "replayed" {
				s.Replayed++
			}
		case "failed":
			s.Failed++
		}
		s.Tasks = append(s.Tasks, ts)
	}
	return s
}
