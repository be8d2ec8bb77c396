// Command branchscope runs the covert-channel attack end to end on a
// simulated machine and reports the error rate: a demo driver for the
// library's main flow (spawn sender, pre-attack search, prime–step–probe
// per bit, decode).
//
// Usage:
//
//	branchscope [-model Skylake] [-bits 10000] [-pattern random]
//	            [-noisy] [-sgx] [-timing] [-seed 1] [-v]
//	            [-chaos light|moderate|heavy|FLOAT|JSON] [-chaos-seed 0]
//	            [-retry N]
//	            [-serve addr] [-ledger-out l.jsonl]
//	            [-metrics-out m.json] [-trace-out t.json]
//	            [-leakage-out lk.json] [-introspect-out pht.json]
//	            [-archive dir]
//	            [-log-format text|json] [-log-level info]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Observability (shared surface, see internal/cliutil): -metrics-out
// writes the telemetry registry (episode counts, pattern distribution,
// per-stage cycle histograms, scheduler and CPU counters) as JSON;
// -trace-out writes a Chrome trace-event JSON of the run — per-thread
// timelines with one span per attack episode — loadable at
// ui.perfetto.dev. Both record simulated cycles only and are
// byte-identical across runs with the same seed, and both are flushed
// even when the run is interrupted by SIGINT. -serve exposes /metrics,
// /leakage, /introspect/pht, /statusz, /healthz, /readyz and
// /debug/pprof live during the run; -ledger-out appends one
// branchscope.ledger/v1 provenance record for the run (config, seed,
// outcome, error-rate digest, metrics delta, flattened leakage
// gauges). -v additionally prints a metrics summary table with
// p50/p95/p99 cycle quantiles. -archive <dir> snapshots every sink
// plus a branchscope.run/v1 manifest under <dir>/<run-id>/, where
// <run-id> digests only the result-shaping knobs (see
// internal/runstore; inspect archives with cmd/bsctl).
//
// Leakage analytics (see internal/leakage and DESIGN §3.17): every run
// streams per-window channel-quality estimates — BER, mutual
// information and Blahut–Arimoto capacity in bits/branch, probe-signal
// SNR, and the 3-outcome confusion matrix — and the summary line after
// the error rate reports them. -leakage-out writes the final
// branchscope.leakage/v1 report; -introspect-out writes the decoded
// machine's predictor snapshot (per-entry 2-bit counter states and the
// per-set mispredict heatmap) as branchscope.introspect/v1 JSON.
//
// Resilience (see DESIGN §3.15): -chaos attaches a deterministic fault
// injector to the run; -retry N switches the spy to the resilient
// per-bit majority-vote read, reporting bits whose vote stays
// ambiguous as unknown rather than silently wrong. The covert run is
// one root task on -seed, so branchscope registers the covert-read
// flags (cliutil.Flags.RegisterCovert) and not the multi-task campaign
// ones: -checkpoint/-resume, -breaker and the service mode are unknown
// flags here (exit 2).
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"syscall"

	"branchscope/internal/cliutil"
	"branchscope/internal/cpu"
	"branchscope/internal/engine"
	"branchscope/internal/experiments"
	"branchscope/internal/trace"
	"branchscope/internal/uarch"
)

func main() { os.Exit(run()) }

// usageErr reports a flag-validation failure the way the flag package
// does: message to stderr, usage, exit status 2.
func usageErr(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	flag.Usage()
	return 2
}

func run() (code int) {
	var (
		model   = flag.String("model", "Skylake", "CPU model: Skylake, Haswell or SandyBridge")
		bits    = flag.Int("bits", 10000, "number of secret bits to transmit per run")
		runs    = flag.Int("runs", 1, "independent runs to average")
		pattern = flag.String("pattern", "random", "bit pattern: zeros, ones or random")
		noisy   = flag.Bool("noisy", false, "unrestricted setting (background noise shares the core)")
		sgxMode = flag.Bool("sgx", false, "run the sender inside an SGX enclave with an OS-assisted spy")
		timing  = flag.Bool("timing", false, "probe with rdtscp timing instead of the misprediction PMC")
		seed    = flag.Uint64("seed", 1, "random seed (runs are fully deterministic per seed)")
		verbose = flag.Bool("v", false, "print per-run error rates and a metrics summary table")
		traced  = flag.Bool("trace", false, "record and summarize the spy's execution trace")
	)
	var obsFlags cliutil.Flags
	obsFlags.RegisterCovert(flag.CommandLine)
	flag.Parse()

	// Validate the flag set up front; nonsensical combinations are
	// usage errors, not silently ignored knobs.
	if flag.NArg() > 0 {
		return usageErr("unexpected arguments: %v", flag.Args())
	}
	if *bits <= 0 {
		return usageErr("-bits must be positive (got %d)", *bits)
	}
	if *runs <= 0 {
		return usageErr("-runs must be positive (got %d)", *runs)
	}
	if *sgxMode && *noisy {
		return usageErr("-sgx cannot be combined with -noisy: the SGX threat model's malicious OS " +
			"controls scheduling (use `experiments table3` for the partially-suppressed-noise cell)")
	}
	if *traced && *runs > 1 {
		return usageErr("-trace requires -runs 1: per-run recorder summaries would be " +
			"misattributed when averaging over runs")
	}
	// -coordinator/-worker/-workers: the distributed fabric (see
	// internal/fabric). For this single-task CLI the coordinator
	// dispatches the one covert run to the pool and prints the merged
	// result line; -v and -trace need the in-process result and stay
	// local-only.
	workerURLs, err := obsFlags.FabricWorkers()
	if err != nil {
		return usageErr("branchscope: %v", err)
	}
	if (obsFlags.Worker || len(workerURLs) > 0) && (*verbose || *traced) {
		return usageErr("branchscope: -v/-trace need the in-process run; they cannot be combined with -worker/-coordinator")
	}
	m, err := uarch.ByName(*model)
	if err != nil {
		return usageErr("%v", err)
	}
	var pat experiments.BitPattern
	switch *pattern {
	case "zeros":
		pat = experiments.AllZeros
	case "ones":
		pat = experiments.AllOnes
	case "random":
		pat = experiments.RandomBits
	default:
		return usageErr("unknown pattern %q (want zeros, ones or random)", *pattern)
	}
	setting := experiments.Isolated
	if *noisy {
		setting = experiments.Noisy
	}

	sess, err := cliutil.NewSession("branchscope", obsFlags, cliutil.Options{
		// The registry is always on (the CLI is not a hot path; the -v
		// table reads it); the tracer only when its output is
		// requested, since it retains every event.
		ForceMetrics: true,
	})
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
	plan, err := obsFlags.ChaosPlan(*seed)
	if err != nil {
		return usageErr("branchscope: %v", err)
	}

	// The covert run as the one root task. Its Run ignores the
	// engine-derived seed and uses -seed: the root seed is what the run
	// records, and in fabric mode the assignment identity check
	// guarantees both sides share -seed and every covert knob. Chaos,
	// retry and telemetry reach it through the run's context overrides.
	cfg := experiments.CovertConfig{
		Model:     m,
		Setting:   setting,
		Pattern:   pat,
		Bits:      *bits,
		Runs:      *runs,
		SGX:       *sgxMode,
		UseTiming: *timing,
		Seed:      *seed,
	}
	var recorders []*trace.Recorder
	if *traced {
		cfg.SpyHook = func(ctx *cpu.Context) {
			recorders = append(recorders, trace.Attach(ctx, 64))
		}
	}
	covert := engine.Task{
		ID: "covert", Artifact: "covert channel",
		Run: func(ctx context.Context, _ engine.Config) (engine.Result, error) {
			return experiments.RunCovert(ctx, cfg)
		},
	}
	knobs := map[string]any{
		"model":   m.Name,
		"bits":    *bits,
		"runs":    *runs,
		"pattern": *pattern,
		"setting": setting.String(),
		"sgx":     *sgxMode,
		"timing":  *timing,
	}
	ledger := map[string]any{"chaos": obsFlags.Chaos, "retry": obsFlags.Retry}
	maps.Copy(ledger, knobs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reports, err := sess.Execute(ctx, cliutil.Plan{
		Program: "branchscope", Seed: *seed, Tasks: []engine.Task{covert}, Root: true,
		Config: knobs, LedgerConfig: ledger,
	})
	if reports == nil {
		if err != nil {
			return usageErr("branchscope: %v", err)
		}
		return 0 // a -worker served until interrupted
	}

	fmt.Printf("BranchScope covert channel: %s, %s, %s, %d bits x %d run(s)",
		m, setting, pat, *bits, *runs)
	if *sgxMode {
		fmt.Print(", sender in SGX enclave")
	}
	if *timing {
		fmt.Print(", rdtscp probing")
	}
	if plan != nil {
		fmt.Printf(", chaos %s", obsFlags.Chaos)
	}
	if obsFlags.Retry > 0 {
		fmt.Printf(", retry budget %d", obsFlags.Retry)
	}
	fmt.Println()
	rep := reports[0]
	if rep.Err != nil {
		return 1
	}
	res, local := rep.Result.(experiments.CovertResult)
	if !local {
		// A -coordinator prints the worker's merged result line.
		fmt.Println(rep.Result.String())
		return 0
	}

	if *verbose {
		for i, r := range res.PerRun {
			fmt.Printf("  run %d: %.3f%%\n", i+1, 100*r)
		}
	}
	if res.SetupFailed > 0 {
		fmt.Printf("pre-attack block search failed in %d run(s)\n", res.SetupFailed)
	}
	if res.Unknown > 0 {
		fmt.Printf("unknown bits: %d (budget exhausted; each scored as a coin flip)\n", res.Unknown)
	}
	if res.Recalibrations > 0 {
		fmt.Printf("timing detector recalibrated %d time(s) after drift\n", res.Recalibrations)
	}
	fmt.Printf("average error rate: %.3f%%\n", 100*res.ErrorRate)
	fmt.Printf("channel quality: BER %.4f, MI %.3f bits/branch, capacity %.3f bits/branch, SNR %.3f\n",
		res.Leakage.BitErrorRate, res.Leakage.MutualInformationBits,
		res.Leakage.CapacityBits, res.Leakage.SNR)
	if *traced {
		for i, rec := range recorders {
			s := rec.Summary()
			fmt.Printf("spy trace, run %d: %s\n", i+1, s)
			fmt.Printf("  last branches: %s\n", rec.Directions())
		}
	}
	if *verbose {
		fmt.Println("metrics:")
		if err := sess.Metrics.Snapshot().WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}
