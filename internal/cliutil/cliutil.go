// Package cliutil is the invocation pipeline shared by the three CLIs
// (branchscope, experiments, phtmap) and the campaign job service: one
// flag set with identical names and usage wording; a Session that owns
// every export sink — metrics and trace files, the provenance ledger,
// the live obs server, Go profiles — and flushes all of them in Close;
// and a Plan that Session.Execute turns into a run identity, executes
// locally, durably, across fabric workers or as a worker, and settles
// into the run archive (see plan.go).
//
// Close is designed to run on *every* exit path via defer, including
// a SIGINT/SIGTERM-canceled run: a run interrupted halfway still
// leaves a valid metrics file, a parseable ledger, and a cleanly
// shut-down HTTP server behind. Exports that were not requested cost
// nothing (nil registry/tracer/ledger handles are no-ops).
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"branchscope/internal/campaign"
	"branchscope/internal/chaos"
	"branchscope/internal/core"
	"branchscope/internal/durable"
	"branchscope/internal/engine"
	"branchscope/internal/experiments"
	"branchscope/internal/fabric"
	"branchscope/internal/leakage"
	"branchscope/internal/obs"
	"branchscope/internal/runstore"
	"branchscope/internal/telemetry"
)

// Flags is the shared observability flag set. Register installs it
// with the same names and usage strings in every CLI — flag parity is
// a tested contract, not a convention.
type Flags struct {
	MetricsOut string
	TraceOut   string
	Serve      string
	LedgerOut  string
	// LeakageOut/IntrospectOut export the last published channel-
	// quality report and predictor snapshot at Close. Under a parallel
	// suite the live slots are last-writer-wins; the deterministic
	// per-cell values live in the report rows and the ledger.
	LeakageOut    string
	IntrospectOut string
	LogFormat     string
	LogLevel      string
	CPUProfile    string
	MemProfile    string
	// Chaos/ChaosSeed/Retry are the shared resilience surface: a
	// deterministic fault-injection plan and the resilient attack
	// loop's per-bit attempt budget. See ChaosPlan and RetryConfig.
	Chaos     string
	ChaosSeed uint64
	Retry     int
	// Checkpoint/Resume/Watchdog/Breaker are the durability surface: a
	// crash-safe campaign journal with resume, a soft per-task deadline,
	// and a per-family circuit breaker. See Campaign, RequireNoCampaign
	// and Breakers.
	Checkpoint string
	Resume     bool
	Watchdog   time.Duration
	Breaker    int
	// Archive is the run-archive root: at Close the session writes
	// <dir>/<run-id>/ with a branchscope.run/v1 manifest plus copies of
	// every sink the run produced. See internal/runstore.
	Archive string
	// Coordinator/Workers/Worker are the distributed-campaign surface
	// (see internal/fabric): coordinator mode shards the task list
	// across the -workers pool and merges the streamed outcomes;
	// worker mode serves fabric assignments on the -serve address.
	// Execution-shape flags: like -parallel and -checkpoint they are
	// excluded from the run identity, because where tasks run never
	// changes what they produce.
	Coordinator bool
	Workers     string
	Worker      bool
	// Service and the Svc* knobs are the multi-tenant campaign job
	// service surface (see internal/svc): -service accepts
	// branchscope.job/v1 submissions on the -serve address instead of
	// running the suite locally; the Svc* limits bound concurrent and
	// queued jobs globally and per tenant (0 = the service defaults),
	// and -svc-journal makes admitted jobs survive a restart. All
	// execution-shape: each job's run identity comes from its spec.
	Service          bool
	SvcJobs          int
	SvcQueue         int
	SvcTenantRunning int
	SvcTenantQueue   int
	SvcJournal       string
}

// Register installs the shared flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write telemetry metrics as JSON to this file")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Perfetto-loadable Chrome trace JSON to this file")
	fs.StringVar(&f.Serve, "serve", "", "serve live observability endpoints (/metrics, /leakage, /introspect/pht, /statusz, /healthz, /readyz, /debug/pprof) on this address during the run (e.g. :8080 or 127.0.0.1:0)")
	fs.StringVar(&f.LedgerOut, "ledger-out", "", "append one branchscope.ledger/v1 JSONL provenance record per completed task to this file")
	fs.StringVar(&f.LeakageOut, "leakage-out", "", "write the last published channel-quality report (branchscope.leakage/v1 JSON) to this file")
	fs.StringVar(&f.IntrospectOut, "introspect-out", "", "write the last published predictor introspection snapshot (branchscope.introspect/v1 JSON) to this file")
	fs.StringVar(&f.LogFormat, "log-format", "text", "structured stderr log format: text or json")
	fs.StringVar(&f.LogLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
	fs.StringVar(&f.Chaos, "chaos", "", "deterministic fault injection: off, light, moderate, heavy, a bare intensity multiplier, or a chaos plan JSON object")
	fs.Uint64Var(&f.ChaosSeed, "chaos-seed", 0, "seed for the chaos plan's fault schedule (0 = derive from -seed)")
	fs.IntVar(&f.Retry, "retry", 0, "per-bit attempt budget for the resilient attack loop; also retries timed-out tasks (0 = the paper's naive single-episode read)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "journal per-task outcomes to this crash-safe branchscope.campaign/v1 file as they complete (enables -resume)")
	fs.BoolVar(&f.Resume, "resume", false, "resume an interrupted campaign from the -checkpoint journal: replay completed tasks, re-run the rest with the same derived seeds")
	fs.DurationVar(&f.Watchdog, "watchdog", 0, "soft per-task deadline: tasks running past it are marked stuck in /statusz and logs but keep running (0 = off)")
	fs.IntVar(&f.Breaker, "breaker", 0, "open a per-family circuit breaker after N consecutive permanent task failures, skipping the family's remaining tasks (0 = off)")
	fs.StringVar(&f.Archive, "archive", "", "archive this run under <dir>/<run-id>/: a branchscope.run/v1 manifest plus copies of every sink (inspect with bsctl)")
	fs.BoolVar(&f.Coordinator, "coordinator", false, "run as a distributed-campaign coordinator: shard the task list across the -workers pool and merge their streamed outcomes (byte-identical to a single-process run)")
	fs.StringVar(&f.Workers, "workers", "", "comma-separated worker base URLs for -coordinator (e.g. http://127.0.0.1:9001,http://127.0.0.1:9002)")
	fs.BoolVar(&f.Worker, "worker", false, "run as a distributed-campaign worker: serve fabric assignments from a coordinator on the -serve address instead of running the suite locally")
	fs.BoolVar(&f.Service, "service", false, "run as a multi-tenant campaign job service: accept branchscope.job/v1 submissions on the -serve address (POST /jobs) instead of running the suite locally")
	fs.IntVar(&f.SvcJobs, "svc-jobs", 0, "service mode: max jobs running concurrently across all tenants (0 = 2)")
	fs.IntVar(&f.SvcQueue, "svc-queue", 0, "service mode: max jobs queued across all tenants before submissions shed with 429 (0 = 16)")
	fs.IntVar(&f.SvcTenantRunning, "svc-tenant-running", 0, "service mode: max jobs one tenant may run concurrently; excess queues fairly (0 = 1)")
	fs.IntVar(&f.SvcTenantQueue, "svc-tenant-queue", 0, "service mode: max jobs one tenant may have queued before its submissions shed with 429 (0 = 4)")
	fs.StringVar(&f.SvcJournal, "svc-journal", "", "service mode: journal admitted jobs to this crash-safe file so queued jobs survive a service restart")
}

// FabricWorkers validates the fabric flag combination and resolves the
// -workers list into worker base URLs. It returns nil (and no error)
// when neither fabric mode was requested.
func (f Flags) FabricWorkers() ([]string, error) {
	if f.Worker && f.Coordinator {
		return nil, errors.New("-worker and -coordinator are mutually exclusive (a process is one or the other)")
	}
	if f.Worker {
		if f.Serve == "" {
			return nil, errors.New("-worker requires -serve (the address the coordinator reaches this worker on)")
		}
		if f.Checkpoint != "" || f.Resume {
			return nil, errors.New("-worker cannot take -checkpoint/-resume: the coordinator owns the campaign journal")
		}
		if f.Workers != "" {
			return nil, errors.New("-workers applies to -coordinator, not -worker")
		}
		return nil, nil
	}
	if !f.Coordinator {
		if f.Workers != "" {
			return nil, errors.New("-workers requires -coordinator")
		}
		return nil, nil
	}
	if f.Workers == "" {
		return nil, errors.New("-coordinator requires -workers (the pool to shard tasks across)")
	}
	var urls []string
	for _, w := range strings.Split(f.Workers, ",") {
		w = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(w), "/"))
		if w == "" {
			continue
		}
		if !strings.HasPrefix(w, "http://") && !strings.HasPrefix(w, "https://") {
			w = "http://" + w
		}
		urls = append(urls, w)
	}
	if len(urls) == 0 {
		return nil, errors.New("-workers lists no usable worker URLs")
	}
	return urls, nil
}

// RequireNoFabric rejects the fabric flags for programs that only run
// locally: phtmap's mapping sweep has no campaign task list to shard.
func (f Flags) RequireNoFabric(prog string) error {
	if f.Coordinator || f.Worker || f.Workers != "" {
		return fmt.Errorf("%s runs locally only; -coordinator/-worker/-workers apply to campaign programs (use cmd/experiments or cmd/branchscope)", prog)
	}
	return nil
}

// ServiceMode validates the service flag combination for the one
// program that can serve jobs (cmd/experiments). Service mode needs an
// address to serve on and is exclusive with the fabric and campaign
// modes: jobs carry their own durability (-svc-journal) and a service
// process is a scheduler, not a one-shot campaign.
func (f Flags) ServiceMode() error {
	if !f.Service {
		if f.SvcJobs != 0 || f.SvcQueue != 0 || f.SvcTenantRunning != 0 || f.SvcTenantQueue != 0 || f.SvcJournal != "" {
			return errors.New("-svc-jobs/-svc-queue/-svc-tenant-running/-svc-tenant-queue/-svc-journal require -service")
		}
		return nil
	}
	if f.Serve == "" {
		return errors.New("-service requires -serve (the address clients submit jobs to)")
	}
	if f.Coordinator || f.Worker {
		return errors.New("-service excludes -coordinator/-worker: a process serves jobs or joins a fabric, not both")
	}
	if f.Checkpoint != "" || f.Resume {
		return errors.New("-service cannot take -checkpoint/-resume: job durability comes from -svc-journal, per admitted job")
	}
	if f.SvcJobs < 0 || f.SvcQueue < 0 || f.SvcTenantRunning < 0 || f.SvcTenantQueue < 0 {
		return errors.New("-svc-* limits must be >= 0 (0 = the service default)")
	}
	return nil
}

// RequireNoService rejects the service flags for programs that cannot
// serve jobs: only cmd/experiments has the task registry a job spec
// selects from.
func (f Flags) RequireNoService(prog string) error {
	if f.Service || f.SvcJobs != 0 || f.SvcQueue != 0 || f.SvcTenantRunning != 0 || f.SvcTenantQueue != 0 || f.SvcJournal != "" {
		return fmt.Errorf("%s runs locally only; -service and -svc-* apply to cmd/experiments", prog)
	}
	return nil
}

// ChaosPlan resolves -chaos/-chaos-seed into a fault plan. It returns
// nil when no (or a disabled) plan was requested, so callers can gate
// injector installation on the result. A zero -chaos-seed derives the
// schedule seed from the run's base seed, keeping chaos runs
// reproducible by default yet independently reseedable.
func (f Flags) ChaosPlan(baseSeed uint64) (*chaos.Plan, error) {
	if f.Chaos == "" {
		return nil, nil
	}
	seed := f.ChaosSeed
	if seed == 0 {
		seed = engine.DeriveSeed(baseSeed, "chaos")
	}
	plan, err := chaos.Parse(f.Chaos, seed)
	if err != nil {
		return nil, fmt.Errorf("-chaos: %w", err)
	}
	if !plan.Enabled() {
		return nil, nil
	}
	return &plan, nil
}

// IdentityConfig assembles the shared result-shaping flags for a
// runstore.Identity's Config: the retry budget, the breaker threshold,
// and the chaos plan — with its crash spec zeroed first, because a
// crash point only decides *whether* the process survives, never what
// the surviving measurements contain (crash-only plans install no
// injector), and a crashed run must resume under the same RunID as the
// uninterrupted oracle it is compared against. Execution-shape flags
// (-parallel, -checkpoint/-resume, -watchdog, sink paths) are
// deliberately absent. Callers merge in their program-specific knobs.
func (f Flags) IdentityConfig(baseSeed uint64) (map[string]any, error) {
	cfg := map[string]any{}
	if f.Retry > 0 {
		cfg["retry"] = f.Retry
	}
	if f.Breaker > 0 {
		cfg["breaker"] = f.Breaker
	}
	plan, err := f.ChaosPlan(baseSeed)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		p := *plan
		p.Crash = chaos.Spec{}
		if p.HasEpisodeFaults() {
			cfg["chaos"] = p.String()
		}
	}
	return cfg, nil
}

// Archiver resolves -archive into a run archiver for id, nil (a valid
// no-op sink) when no archive was requested. Attach it to the session
// with SetArchiver so Close writes it after the sinks flush.
func (f Flags) Archiver(id runstore.Identity) *runstore.Archiver {
	if f.Archive == "" {
		return nil
	}
	return runstore.New(f.Archive, id)
}

// Campaign resolves -checkpoint/-resume into a durable campaign: nil
// when neither flag asks for one, a fresh journal for -checkpoint
// alone, a resumed one for -checkpoint -resume. The header pins the
// run's identity; Resume fails loudly on a mismatched journal.
func (f Flags) Campaign(h campaign.Header) (*campaign.Campaign, error) {
	if f.Checkpoint == "" {
		if f.Resume {
			return nil, errors.New("-resume requires -checkpoint (the journal to resume from)")
		}
		return nil, nil
	}
	if f.Resume {
		return campaign.Resume(f.Checkpoint, h)
	}
	return campaign.New(f.Checkpoint, h)
}

// RequireNoCampaign rejects the campaign flags for single-task
// programs: with exactly one root task there is nothing to checkpoint
// between — rerunning the program is the resume path — and no
// remaining task of a family a breaker could skip.
func (f Flags) RequireNoCampaign(prog string) error {
	if f.Checkpoint != "" || f.Resume || f.Breaker != 0 {
		return fmt.Errorf("%s runs a single root task; -checkpoint/-resume/-breaker only apply to multi-task campaigns (use cmd/experiments)", prog)
	}
	return nil
}

// RequireNoRetry rejects -retry for programs without a resilient read
// loop to switch on (phtmap's mapper probes in a flat loop), so the
// flag can never mint a new run identity for identical output.
func (f Flags) RequireNoRetry(prog string) error {
	if f.Retry != 0 {
		return fmt.Errorf("%s has no resilient read loop; -retry applies to covert-channel runs (use cmd/branchscope or cmd/experiments)", prog)
	}
	return nil
}

// Breakers resolves -breaker into the engine's circuit-breaker set
// (nil when disabled).
func (f Flags) Breakers() *engine.BreakerSet { return engine.NewBreakerSet(f.Breaker) }

// RetryConfig resolves -retry into the resilient read policy, nil when
// the flag keeps the naive loop.
func (f Flags) RetryConfig() *core.RetryConfig {
	if f.Retry <= 0 {
		return nil
	}
	return &core.RetryConfig{MaxAttempts: f.Retry}
}

// Overrides resolves -retry, with the run's chaos plan (ChaosPlan) and
// telemetry set, into the overrides every covert measurement of the run
// reads from its task context (see experiments.WithOverrides). A
// crash-only chaos plan installs no injector: a crash point decides
// whether the process survives, never what a measurement contains.
func (f Flags) Overrides(plan *chaos.Plan, tel *telemetry.Set) *experiments.Overrides {
	ov := &experiments.Overrides{Telemetry: tel, Retry: f.RetryConfig()}
	if plan != nil && plan.HasEpisodeFaults() {
		ov.Chaos = plan
	}
	return ov
}

// Options tunes session construction per CLI.
type Options struct {
	// ForceMetrics keeps the registry on even when no -metrics-out /
	// -serve / -ledger-out asked for it (branchscope's -v table reads
	// the registry unconditionally).
	ForceMetrics bool
	// LogWriter overrides the log destination (default os.Stderr;
	// tests pass a buffer). Stdout is never an option: it is reserved
	// for the deterministic report.
	LogWriter io.Writer
	// Jobs, when non-nil, is the campaign job service the session
	// hosts instead of executing a plan (see internal/svc).
	Jobs Jobs
}

// Jobs is the campaign job service a session can host: its handler is
// mounted at /jobs on the -serve server, its occupancy fills the
// /statusz service section, and its readiness answers /readyz.
type Jobs interface {
	Handler() http.Handler
	Status() *obs.ServiceStatus
	Ready() bool
}

// Session is one CLI run's observability state.
type Session struct {
	// Log is the process logger (stderr), never nil.
	Log *slog.Logger
	// Metrics is nil unless requested (see Options.ForceMetrics).
	Metrics *telemetry.Registry
	// Trace is nil unless -trace-out was given.
	Trace *telemetry.Tracer
	// Ledger is nil unless -ledger-out was given; nil-safe to use.
	Ledger *obs.Ledger
	// Deltas attributes per-task metrics windows for ledger records;
	// nil-safe to use.
	Deltas *obs.DeltaRecorder

	prog       string
	flags      Flags
	jobs       Jobs
	ledgerFile *os.File
	cpuFile    *os.File
	server     *obs.Handle
	closed     bool

	// run is the executing plan's progress, declared by Execute, and
	// worker the fabric worker it serves under -worker; both are read
	// by scrapes that may arrive before Execute installs them.
	run    atomic.Pointer[runState]
	worker atomic.Pointer[fabric.Worker]

	// runID is set by SetRunID after the CLI derives its identity —
	// potentially while the obs server is already serving scrapes, so
	// reads go through an atomic.
	runID atomic.Pointer[string]
	// ledgerTorn records that the reopened ledger had a torn final
	// record (truncated before append); surfaced in /statusz.
	ledgerTorn bool
	archiver   *runstore.Archiver
}

// NewSession validates the shared flags and opens every requested
// sink: logger, registry, tracer, ledger file (append mode — ledgers
// accumulate across runs), CPU profile, and the obs HTTP server. On
// error, everything already opened is closed again.
func NewSession(prog string, f Flags, o Options) (*Session, error) {
	logw := o.LogWriter
	if logw == nil {
		logw = os.Stderr
	}
	log, err := obs.NewLogger(logw, f.LogFormat, f.LogLevel)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", prog, err)
	}
	s := &Session{Log: log, prog: prog, flags: f, jobs: o.Jobs}

	if o.ForceMetrics || f.MetricsOut != "" || f.Serve != "" || f.LedgerOut != "" {
		s.Metrics = telemetry.NewRegistry()
	}
	if f.TraceOut != "" {
		s.Trace = telemetry.NewTracer()
	}
	if f.LedgerOut != "" {
		// Heal the tail before appending: once new lines land behind a
		// torn or unterminated final record, it would read as mid-file
		// corruption.
		_, torn, err := durable.Heal(f.LedgerOut, obs.ParseLedgerRecord)
		if err != nil {
			log.Warn("ledger tail check failed; appending anyway", "path", f.LedgerOut, "err", err)
		} else if torn {
			s.ledgerTorn = true
			log.Warn("ledger had a torn final record (crash mid-append); truncated it before reopening",
				"path", f.LedgerOut)
		}
		lf, err := os.OpenFile(f.LedgerOut, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("%s: opening ledger: %w", prog, err)
		}
		s.ledgerFile = lf
		s.Ledger = obs.NewLedger(lf)
		s.Deltas = obs.NewDeltaRecorder(s.Metrics)
	}
	if f.CPUProfile != "" {
		cf, err := os.Create(f.CPUProfile)
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("%s: %w", prog, err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			s.closeFiles()
			return nil, fmt.Errorf("%s: starting CPU profile: %w", prog, err)
		}
		s.cpuFile = cf
	}
	if f.Serve != "" {
		srv := &obs.Server{
			Program:    prog,
			Metrics:    s.Metrics,
			Status:     s.status,
			Ready:      s.ready,
			Introspect: leakage.LatestIntrospection,
			Log:        log,
		}
		if f.Worker {
			srv.Fabric = http.HandlerFunc(s.serveFabric)
		}
		if o.Jobs != nil {
			srv.Jobs = o.Jobs.Handler()
		}
		if f.Archive != "" {
			dir := f.Archive
			srv.Runs = func() (any, error) {
				ms, err := runstore.List(dir)
				if ms == nil {
					ms = []runstore.Manifest{}
				}
				return ms, err
			}
		}
		h, err := srv.Start(f.Serve)
		if err != nil {
			s.stopProfile()
			s.closeFiles()
			return nil, fmt.Errorf("%s: %w", prog, err)
		}
		s.server = h
		log.Info("observability server listening",
			"addr", h.Addr(), "endpoints", "/metrics /leakage /introspect/pht /statusz /runs /healthz /readyz /debug/pprof")
	}
	return s, nil
}

// runState is the progress /statusz and /readyz report once Execute
// has declared the run's tasks.
type runState struct {
	tracker  *obs.Tracker
	breakers *engine.BreakerSet
}

// status renders /statusz: the declared run's task progress and
// breaker states, the hosted job service's occupancy, the run identity
// and ledger-tail health.
func (s *Session) status() obs.Status {
	st := obs.Status{Schema: obs.StatusSchema, Program: s.prog}
	if r := s.run.Load(); r != nil {
		st = r.tracker.Status()
		for _, b := range r.breakers.Status() {
			st.Breakers = append(st.Breakers, obs.BreakerStatus{
				Family: b.Family, State: b.State,
				ConsecutiveFailures: b.ConsecutiveFailures, Skipped: b.Skipped,
			})
		}
	}
	if s.jobs != nil {
		st.Service = s.jobs.Status()
	}
	st.RunID = s.RunID()
	st.LedgerTorn = s.ledgerTorn
	return st
}

// ready answers /readyz: a job host while its service admits jobs, a
// fabric worker once it serves assignments, a run while no circuit
// breaker is open.
func (s *Session) ready() bool {
	switch {
	case s.jobs != nil:
		return s.jobs.Ready()
	case s.flags.Worker && s.worker.Load() == nil:
		return false
	}
	r := s.run.Load()
	return r == nil || !r.breakers.AnyOpen()
}

// serveFabric routes /fabric/ to the worker Execute serves, 503 until
// it is configured.
func (s *Session) serveFabric(w http.ResponseWriter, r *http.Request) {
	wk := s.worker.Load()
	if wk == nil {
		http.Error(w, "fabric worker is starting", http.StatusServiceUnavailable)
		return
	}
	wk.Handler().ServeHTTP(w, r)
}

// SetRunID installs the run's causal identity on every sink the
// session owns: ledger records, leakage reports, and /statusz. Call it
// as soon as the identity is derived (before tasks run).
func (s *Session) SetRunID(id string) {
	if s == nil || id == "" {
		return
	}
	s.runID.Store(&id)
	s.Ledger.SetRunID(id)
	leakage.SetRunID(id)
}

// RunID returns the identity installed by SetRunID ("" before).
func (s *Session) RunID() string {
	if s == nil {
		return ""
	}
	p := s.runID.Load()
	if p == nil {
		return ""
	}
	return *p
}

// SetArchiver attaches the run archiver the session writes at Close,
// and schedules every session-owned sink file — and the campaign
// journal — for archiving. Execute settles task outcomes and the
// canonical report/export blobs on it (Plan.Settle). Nil-safe both
// ways.
func (s *Session) SetArchiver(a *runstore.Archiver) {
	if s == nil {
		return
	}
	s.archiver = a
	a.AddFile("ledger", s.flags.LedgerOut)
	a.AddFile("metrics", s.flags.MetricsOut)
	a.AddFile("trace", s.flags.TraceOut)
	a.AddFile("leakage", s.flags.LeakageOut)
	a.AddFile("introspect", s.flags.IntrospectOut)
	a.AddFile("journal", s.flags.Checkpoint)
}

func (s *Session) stopProfile() {
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		s.cpuFile.Close()
		s.cpuFile = nil
	}
}

func (s *Session) closeFiles() {
	if s.ledgerFile != nil {
		s.ledgerFile.Close()
		s.ledgerFile = nil
	}
}

// Close flushes every sink. It must run on every exit path (defer it
// right after NewSession) — in particular on the SIGINT/SIGTERM
// cancellation path, where the partial run's metrics, trace, and
// ledger are exactly what a debugging user needs. Idempotent; returns
// the joined errors of all sinks.
func (s *Session) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	var errs []error

	if s.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		res, err := s.server.Drain(ctx)
		if err != nil {
			errs = append(errs, fmt.Errorf("shutting down observability server: %w", err))
		}
		s.Log.Info("observability server stopped", "drain", res.String())
		cancel()
	}
	if s.flags.MetricsOut != "" {
		if err := WriteFile(s.flags.MetricsOut, s.Metrics.Snapshot().WriteJSON); err != nil {
			errs = append(errs, fmt.Errorf("writing metrics: %w", err))
		} else {
			s.Log.Info("metrics written", "path", s.flags.MetricsOut)
		}
	}
	if s.flags.TraceOut != "" {
		if err := WriteFile(s.flags.TraceOut, s.Trace.WriteJSON); err != nil {
			errs = append(errs, fmt.Errorf("writing trace: %w", err))
		} else {
			s.Log.Info("trace written", "path", s.flags.TraceOut, "viewer", "ui.perfetto.dev")
		}
	}
	if s.flags.LeakageOut != "" {
		if err := WriteFile(s.flags.LeakageOut, leakage.WriteLatestReport); err != nil {
			errs = append(errs, fmt.Errorf("writing leakage report: %w", err))
		} else {
			s.Log.Info("leakage report written", "path", s.flags.LeakageOut, "schema", leakage.Schema)
		}
	}
	if s.flags.IntrospectOut != "" {
		write := func(w io.Writer) error {
			return obs.WriteIntrospection(w, leakage.LatestIntrospection())
		}
		if err := WriteFile(s.flags.IntrospectOut, write); err != nil {
			errs = append(errs, fmt.Errorf("writing introspection snapshot: %w", err))
		} else {
			s.Log.Info("introspection snapshot written", "path", s.flags.IntrospectOut, "schema", obs.IntrospectSchema)
		}
	}
	if s.ledgerFile != nil {
		if err := s.ledgerFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing ledger: %w", err))
		} else {
			s.Log.Info("ledger appended", "path", s.flags.LedgerOut, "schema", obs.LedgerSchema)
		}
		s.ledgerFile = nil
	}
	if s.archiver != nil {
		// After the sink flushes above, so the archive copies final bytes.
		if dir, err := s.archiver.Write(); err != nil {
			errs = append(errs, fmt.Errorf("writing run archive: %w", err))
		} else {
			s.Log.Info("run archived", "dir", dir, "run_id", s.archiver.RunID(), "schema", runstore.Schema)
		}
	}
	s.stopProfile()
	if s.flags.MemProfile != "" {
		runtime.GC()
		if err := WriteFile(s.flags.MemProfile, pprof.WriteHeapProfile); err != nil {
			errs = append(errs, fmt.Errorf("writing heap profile: %w", err))
		}
	}
	return errors.Join(errs...)
}

// WriteFile streams writer-based output (WriteJSON and friends) into
// path, creating or truncating it.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
