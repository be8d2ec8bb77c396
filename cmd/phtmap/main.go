// Command phtmap reverse engineers the simulated PHT the way §6.3 of the
// paper does on real silicon: it decodes the predictor state behind a
// contiguous range of virtual addresses and recovers the PHT size from
// the periodicity of the state vector (Figure 5).
//
// Usage:
//
//	phtmap [-model Skylake] [-start 0x300000] [-addresses 65536]
//	       [-block 4000] [-pairs 100] [-seed 1]
//	       [-chaos light|moderate|heavy|FLOAT|JSON] [-chaos-seed 0]
//	       [-serve addr] [-ledger-out l.jsonl] [-watchdog 0]
//	       [-introspect-out pht.json] [-archive dir]
//	       [-log-format text|json] [-log-level info]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Observability (shared surface, see internal/cliutil): each flag above
// means what it means in cmd/branchscope and cmd/experiments. -serve
// exposes /statusz, /healthz, /readyz and /debug/pprof live during the
// run; -ledger-out appends one branchscope.ledger/v1 provenance record
// with the run's config, seed, outcome and result digest. -archive
// <dir> snapshots every sink plus a branchscope.run/v1 manifest under
// <dir>/<run-id>/, where <run-id> digests only the result-shaping knobs
// (see internal/runstore; inspect with cmd/bsctl).
//
// The mapping pass is one root task on the -seed it was given, records
// no telemetry and publishes no leakage report, so phtmap registers
// only the shared flags every program applies (cliutil.Flags.Register).
// The metrics, trace and leakage sinks, -retry, the campaign journal,
// -breaker and the fabric and service modes are unknown flags here
// (exit 2).
//
// Predictor introspection (see DESIGN §3.17): after the mapping pass
// RunFig5 publishes the decoded machine's BPU snapshot — per-entry
// 2-bit counter states, state census, and the per-set mispredict
// heatmap — so /introspect/pht serves it live and -introspect-out
// writes it at exit as canonical branchscope.introspect/v1 JSON. This
// is Figure 5a's raw material seen from the predictor's side.
//
// Resilience (see DESIGN §3.15): -chaos attaches the deterministic
// fault injector in self-clocked mode — the mapper has no episode
// structure, so fault windows are synthesized from counter reads.
// Mapping under chaos shows how much interference the §6.3 state
// decoding tolerates before the discovered size drifts.
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"branchscope/internal/chaos"
	"branchscope/internal/cliutil"
	"branchscope/internal/engine"
	"branchscope/internal/experiments"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
)

func main() { os.Exit(run()) }

func run() (code int) {
	var (
		model = flag.String("model", "Skylake", "CPU model: Skylake, Haswell or SandyBridge")
		start = flag.String("start", "0x300000", "first probed virtual address (64 KiB aligned)")
		count = flag.Int("addresses", 0, "number of contiguous addresses to probe (default 4x PHT size)")
		block = flag.Int("block", 4000, "randomization block size in branches")
		pairs = flag.Int("pairs", 100, "random subvector pairs per window size")
		seed  = flag.Uint64("seed", 1, "random seed")
	)
	var obsFlags cliutil.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	m, err := uarch.ByName(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	startAddr, err := strconv.ParseUint(*start, 0, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -start: %v\n", err)
		return 2
	}

	sess, err := cliutil.NewSession("phtmap", obsFlags, cliutil.Options{})
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

	// The mapper probes in a flat loop with no episode structure, so a
	// requested chaos plan runs self-clocked: the injector synthesizes
	// an episode boundary every few counter reads (roughly one probed
	// address). Only plans with episode faults install an injector: a
	// crash-only plan has nothing to inject here and must not perturb
	// the mapping.
	plan, err := obsFlags.ChaosPlan(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phtmap:", err)
		flag.Usage()
		return 2
	}
	var prepare func(*sched.System)
	if plan != nil && plan.HasEpisodeFaults() {
		prepare = func(sys *sched.System) {
			inj := chaos.NewInjector(sys, *plan)
			inj.SelfClock(4)
		}
	}
	// The mapping pass as the one root task, on the root seed.
	fig5 := engine.Task{
		ID: "fig5", Artifact: "Figure 5",
		Run: func(ctx context.Context, _ engine.Config) (engine.Result, error) {
			return experiments.RunFig5(ctx, experiments.Fig5Config{
				Model:         m,
				Start:         startAddr,
				Addresses:     *count,
				BlockBranches: *block,
				Pairs:         *pairs,
				Prepare:       prepare,
				Seed:          *seed,
			})
		},
	}
	knobs := map[string]any{
		"model":     m.Name,
		"start":     *start,
		"addresses": *count,
		"block":     *block,
		"pairs":     *pairs,
	}
	ledger := map[string]any{"chaos": obsFlags.Chaos}
	maps.Copy(ledger, knobs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reports, err := sess.Execute(ctx, cliutil.Plan{
		Program: "phtmap", Seed: *seed, Tasks: []engine.Task{fig5}, Root: true,
		Config: knobs, LedgerConfig: ledger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "phtmap:", err)
		return 2
	}
	rep := reports[0]
	if rep.Err != nil {
		return 1
	}
	fmt.Print(rep.Result)
	return 0
}
