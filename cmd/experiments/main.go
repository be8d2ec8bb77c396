// Command experiments regenerates the paper's tables and figures on the
// simulated substrate and prints them in the paper's layout. Running it
// with no arguments executes every experiment at full (paper-shaped)
// scale; -quick runs the scaled-down configurations the test suite uses.
//
// Usage:
//
//	experiments [-quick] [-seed 1] [-parallel N] [-timeout 0]
//	            [-chaos light|moderate|heavy|FLOAT|JSON] [-chaos-seed 0]
//	            [-retry N] [-watchdog 0] [-breaker 0]
//	            [-checkpoint run.journal] [-resume]
//	            [-list] [-check] [-md out.md] [-json out.json]
//	            [-serve addr] [-ledger-out l.jsonl]
//	            [-metrics-out m.json] [-trace-out t.json]
//	            [-leakage-out lk.json] [-introspect-out pht.json]
//	            [-archive dir]
//	            [-service] [-svc-jobs N] [-svc-queue N]
//	            [-svc-tenant-running N] [-svc-tenant-queue N]
//	            [-svc-journal svc.journal]
//	            [-log-format text|json] [-log-level info]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [id ...]
//
// With no ids every experiment runs; -list prints each id with its
// paper artifact and description.
//
// Scorecard: -check judges the paper's qualitative claims (the shapes,
// orderings and crossovers of EXPERIMENTS.md) on the rows of the run it
// has just made, and prints the scorecard after the report. Each claim
// reads its own experiment's rows of the branchscope.experiments/v1
// export, so it quotes numbers the report prints. A claim whose
// experiment did not run is not scored; one whose experiment failed
// fails. Fig 4's strong-vs-weak claim needs at least 120 blocks: a
// full-scale run has 200, and under -quick it is not scored. The exit
// code is 1 if any scored claim fails. -check changes nothing else: the
// report, exports, ledger, archive and run ID are those of the same run
// without it.
//
// Execution engine: the suite runs on internal/engine. -parallel N
// (default: GOMAXPROCS) executes experiments — and their per-CPU-model
// sub-runs — on a bounded worker pool. Every unit's randomness derives
// from (seed, experiment ID, unit labels), never from scheduling order,
// so stdout is byte-identical between -parallel 1 and -parallel 8 for
// the same seed. -timeout bounds each experiment's wall time, and a
// panicking or failing experiment is reported in place while the rest
// of the suite completes (exit code 1). SIGINT/SIGTERM cancel the run
// cooperatively — and every requested export is still flushed on that
// path. -json writes every result as structured rows (schema
// branchscope.experiments/v1; see engine.WriteJSON).
//
// Resilience (shared surface, see internal/cliutil and DESIGN §3.15):
// -chaos attaches a deterministic fault injector — scheduler
// preemption, core migration, PMC corruption, TSC jitter, victim
// slowdown — to every covert measurement; -chaos-seed reseeds the
// fault schedule independently of -seed. -retry N switches the spy to
// the resilient read loop (per-bit majority voting, outlier rejection,
// Unknown on exhaustion) and also grants timed-out tasks up to N
// attempts with derived per-attempt seeds. Chaos is part of the
// determinism contract: same seed, plan, and flags give byte-identical
// stdout at any -parallel.
//
// Durability (see internal/campaign and DESIGN §3.16): -checkpoint
// journals every task outcome to a crash-safe branchscope.campaign/v1
// file (fsynced per record); -resume replays the journal's completed
// tasks and re-runs only the rest with the same derived seeds, so a run
// killed at any point converges to the byte-identical report of an
// uninterrupted one (campaign mode zeroes the nondeterministic
// wall_seconds export field). -watchdog marks tasks running past a soft
// deadline as stuck in /statusz without killing them; -breaker N opens
// a per-family circuit breaker after N consecutive permanent failures,
// skipping the family's remaining tasks ("skipped-open-breaker") and
// degrading /readyz while open.
//
// Observability (shared surface, see internal/cliutil): stdout carries
// only the deterministic report; progress is structured slog on stderr
// (-log-format/-log-level), one start and one finish/fail event per
// task with its derived seed, duration, and error. -serve exposes live
// endpoints while the suite runs — /metrics (Prometheus text v0.0.4),
// /statusz (task progress JSON), /healthz, /readyz, /debug/pprof —
// and never perturbs stdout. -ledger-out appends one
// branchscope.ledger/v1 JSONL provenance record per task: config,
// seeds, outcome, wall time, result digest, the task's metrics
// delta, and any leakage gauges the task moved (flattened
// channel-quality fields). -metrics-out/-trace-out write the registry
// and the Perfetto trace at exit (trace requires -parallel 1, where
// one experiment owns the span timeline at a time).
//
// Leakage analytics (see internal/leakage and DESIGN §3.17): covert
// measurements stream per-window channel-quality estimates — BER,
// mutual information and Blahut–Arimoto capacity in bits/branch, and
// probe-signal SNR — into the leakage.* metric family. -serve adds
// /leakage (the leakage.* family as Prometheus text) and
// /introspect/pht (the last published predictor snapshot: per-entry
// 2-bit counter states plus a per-set mispredict heatmap, canonical
// JSON); -leakage-out and -introspect-out write the final channel
// report and predictor snapshot at exit. The live endpoints are
// last-writer-wins diagnostics under -parallel; the per-cell numbers
// in reports and ledger records stay deterministic.
//
// Run archive (see internal/runstore and DESIGN §3.19): every
// invocation derives a causal run identity — a digest of the
// result-shaping inputs (program, seed, quick, task list,
// chaos/retry/breaker/timeout knobs) that deliberately excludes
// execution shape (-parallel, -checkpoint/-resume, sink paths) — and
// stamps it into the report export, every ledger record, the campaign
// journal header, the -leakage-out report, and /statusz. -archive <dir>
// also writes a branchscope.run/v1 manifest plus copies of every sink
// under <dir>/<run-id>/; the manifest is byte-identical at any
// -parallel and across a crash+-resume unless a task ran into -timeout,
// the one knob the wall clock decides. Inspect archives with cmd/bsctl
// (list/show/tail/diff/check).
//
// Campaign service (see internal/svc and DESIGN §3.21): -service turns
// the process into a multi-tenant job service on the -serve address.
// Clients POST branchscope.job/v1 specs to /jobs; each job runs in its
// own isolated simulator instance (own runner, breakers, retry policy,
// chaos overrides, deadline) on the shared pool, streams its results
// as branchscope.ledger/v1 JSONL from /jobs/{id}/stream, and archives
// under -archive <dir>/<tenant>/<run-id>/ with the same run ID — and
// byte-identical report/export/manifest — as a direct CLI run of the
// same spec. -svc-jobs/-svc-queue/-svc-tenant-running/-svc-tenant-queue
// set the admission quotas (shed with 429 + Retry-After); -svc-journal
// makes submissions durable across restarts. Drive it with bsctl job
// submit/status/stream/cancel.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"branchscope/internal/cliutil"
	"branchscope/internal/engine"
	"branchscope/internal/experiments"
	"branchscope/internal/svc"
	"branchscope/internal/telemetry"
)

func main() { os.Exit(run()) }

func run() (code int) {
	var (
		quick    = flag.Bool("quick", false, "run test-scale configurations")
		seed     = flag.Uint64("seed", 1, "random seed")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "max experiments (and experiment-internal units) running concurrently")
		timeout  = flag.Duration("timeout", 0, "per-experiment wall-time limit (0 = unbounded)")
		list     = flag.Bool("list", false, "list available experiments and exit")
		check    = flag.Bool("check", false, "score the paper's claims on this run and print the scorecard after the report")
		mdPath   = flag.String("md", "", "also write the results as a markdown report to this file")
		jsonPath = flag.String("json", "", "write results as structured JSON (branchscope.experiments/v1) to this file")
	)
	var obsFlags cliutil.Flags
	obsFlags.RegisterCampaign(flag.CommandLine)
	flag.Parse()

	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -parallel must be >= 1 (got %d)\n", *parallel)
		flag.Usage()
		return 2
	}
	if obsFlags.TraceOut != "" && *parallel > 1 {
		fmt.Fprintln(os.Stderr, "experiments: -trace-out requires -parallel 1 (concurrent experiments would interleave one span timeline)")
		flag.Usage()
		return 2
	}
	// -coordinator/-worker/-workers: the distributed campaign fabric
	// (see internal/fabric and DESIGN §3.20). Execution-shape flags:
	// like -parallel they never change what the run produces, only
	// where it executes, so they stay out of the run identity.
	if _, err := obsFlags.FabricWorkers(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		flag.Usage()
		return 2
	}
	if obsFlags.Worker {
		if *check || *mdPath != "" || *jsonPath != "" || flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "experiments: -worker serves tasks chosen by its coordinator; -check/-md/-json and experiment ids belong on the coordinator")
			flag.Usage()
			return 2
		}
	}
	// -service/-svc-*: the multi-tenant campaign job service (see
	// internal/svc and DESIGN §3.21). Execution-shape flags: a job's
	// outputs are shaped by its spec, never by where it ran.
	if err := obsFlags.ServiceMode(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		flag.Usage()
		return 2
	}
	if obsFlags.Service {
		if *check || *mdPath != "" || *jsonPath != "" || flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "experiments: -service runs jobs submitted over HTTP; -check/-md/-json and experiment ids belong to direct invocations (or job specs)")
			flag.Usage()
			return 2
		}
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-14s %-18s %s\n", e.ID, e.Artifact, e.Description)
		}
		return 0
	}

	pool := engine.NewPool(*parallel)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if obsFlags.Service {
		return serveJobs(ctx, obsFlags, pool)
	}

	var selected []experiments.Experiment
	if flag.NArg() == 0 {
		selected = experiments.All()
	} else {
		for _, id := range flag.Args() {
			e, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				flag.Usage()
				return 2
			}
			selected = append(selected, e)
		}
	}
	tasks := experiments.Tasks(selected)

	sess, err := cliutil.NewSession("experiments", obsFlags, cliutil.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		return 2
	}
	// Close flushes metrics/trace/ledger and shuts the server down on
	// every exit path, including SIGINT-canceled runs.
	defer func() {
		if err := sess.Close(); err != nil {
			sess.Log.Error("flushing observability exports", "err", err)
			if code == 0 {
				code = 1
			}
		}
	}()
	if sess.Metrics != nil && pool == nil {
		attributeCycles(tasks, sess.Metrics)
	}

	reports, err := sess.Execute(ctx, cliutil.Plan{
		Program: "experiments", Seed: *seed, Quick: *quick, Tasks: tasks,
		Pool: pool, Timeout: *timeout,
		LedgerConfig: map[string]any{"quick": *quick, "parallel": *parallel, "timeout": timeout.String()},
		Files:        map[string]string{"md": *mdPath},
	})
	if reports == nil {
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		return 0 // a -worker served until interrupted
	}
	journalErr := err
	engine.FormatText(os.Stdout, reports)
	failedClaims := 0
	if *check {
		sc, err := scorecard(reports)
		if err != nil {
			sess.Log.Error("scoring the run", "err", err)
			return 1
		}
		fmt.Print(sc)
		failedClaims = sc.Failed()
	}

	if *mdPath != "" {
		var md strings.Builder
		scale := "full scale"
		if *quick {
			scale = "quick scale"
		}
		fmt.Fprintf(&md, "# BranchScope reproduction results\n\n")
		fmt.Fprintf(&md, "Generated by `cmd/experiments` (seed %d, %s). Paper-vs-measured\n", *seed, scale)
		fmt.Fprintf(&md, "commentary lives in EXPERIMENTS.md; this file is the raw regeneration.\n")
		for _, rep := range reports {
			body := ""
			if rep.Err != nil {
				body = fmt.Sprintf("FAILED: %v\n", rep.Err)
			} else {
				body = rep.Result.String()
			}
			fmt.Fprintf(&md, "\n## %s — %s\n\n%s\n\n```\n%s```\n\n*(regenerated in %v)*\n",
				rep.Task.Artifact, rep.Task.ID, rep.Task.Description, body,
				rep.Wall.Round(time.Millisecond))
		}
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			sess.Log.Error("writing markdown report", "path", *mdPath, "err", err)
			return 1
		}
		sess.Log.Info("markdown report written", "path", *mdPath)
	}
	if *jsonPath != "" {
		err := cliutil.WriteFile(*jsonPath, func(w io.Writer) error {
			return engine.WriteJSON(w, engine.ExportMeta{BaseSeed: *seed, Quick: *quick, RunID: sess.RunID()}, reports)
		})
		if err != nil {
			sess.Log.Error("writing JSON export", "path", *jsonPath, "err", err)
			return 1
		}
		sess.Log.Info("JSON export written", "path", *jsonPath, "schema", "branchscope.experiments/v1")
	}
	if journalErr != nil {
		sess.Log.Error("campaign journal failed", "err", journalErr)
		return 1
	}
	if n := engine.Failed(reports); n > 0 {
		sess.Log.Error("suite finished with failures", "failed", n, "total", len(reports))
		return 1
	}
	if failedClaims > 0 {
		sess.Log.Error("paper claims fail on this run", "failed", failedClaims)
		return 1
	}
	return 0
}

// scorecard scores the paper's claims on the run's export, rendered and
// decoded exactly as an archived export is read back.
func scorecard(reports []engine.Report) (experiments.Scorecard, error) {
	var export bytes.Buffer
	if err := engine.WriteJSON(&export, engine.ExportMeta{}, reports); err != nil {
		return experiments.Scorecard{}, err
	}
	x, err := experiments.ReadExport(&export)
	if err != nil {
		return experiments.Scorecard{}, err
	}
	return experiments.Score(x), nil
}

// attributeCycles records each task's simulated cycles in the suite's
// registry. Attribution is exact only when one task owns the
// process-wide cycle counter at a time, so only sequential runs do it.
func attributeCycles(tasks []engine.Task, reg *telemetry.Registry) {
	simCycles := reg.Counter("covert.simulated_cycles")
	for i := range tasks {
		id, run := tasks[i].ID, tasks[i].Run
		tasks[i].Run = func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			before := simCycles.Value()
			res, err := run(ctx, cfg)
			reg.Gauge("experiments." + id + ".simulated_cycles").Set(float64(simCycles.Value() - before))
			return res, err
		}
	}
}

// serveJobs hosts the campaign job service (see internal/svc and
// DESIGN §3.21) until interrupted, then drains it: admissions stop
// (new submissions get 503 + Retry-After), running jobs get a bounded
// grace window, then are canceled. Queued jobs stay journaled; a
// restart re-enqueues them. Each job runs its spec's own plan, never
// this process's -chaos/-retry; crash faults never apply in-process (a
// spec must not kill the service), matching the identity, which zeroes
// the crash point too.
func serveJobs(ctx context.Context, flags cliutil.Flags, pool *engine.Pool) (code int) {
	service := svc.New()
	sess, err := cliutil.NewSession("experiments", flags, cliutil.Options{Jobs: service})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		return 2
	}
	defer func() {
		if err := sess.Close(); err != nil {
			sess.Log.Error("flushing observability exports", "err", err)
			if code == 0 {
				code = 1
			}
		}
	}()
	err = service.Start(svc.Config{
		Program:     "experiments",
		Tasks:       experiments.Tasks(experiments.All()),
		Pool:        pool,
		ArchiveDir:  flags.Archive,
		JournalPath: flags.SvcJournal,
		Limits: svc.Limits{
			Jobs: flags.SvcJobs, Queue: flags.SvcQueue,
			TenantRunning: flags.SvcTenantRunning, TenantQueue: flags.SvcTenantQueue,
		},
		Log: sess.Log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	defer service.Close()
	sess.Log.Info("campaign service serving", "archive", flags.Archive, "journal", flags.SvcJournal)
	<-ctx.Done()
	sess.Log.Info("campaign service interrupted, draining")
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	service.Drain(dctx)
	return 0
}
