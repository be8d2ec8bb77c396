package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"

	"branchscope/internal/bpu"
	"branchscope/internal/chaos"
	"branchscope/internal/core"
	"branchscope/internal/engine"
	"branchscope/internal/uarch"
)

// Experiment is a runnable paper artifact, declared once: what the
// cmd/experiments harness runs and what the scorecard judges.
type Experiment struct {
	// ID is the short name used on the command line ("fig2", "table2").
	ID string
	// Artifact names the paper table/figure or extension.
	Artifact string
	// Description summarizes what is measured.
	Description string
	// Family groups experiments by the subsystem they exercise: the
	// circuit-breaker scope (see engine.Task). A systematic fault (a
	// broken predictor model, a broken covert harness) fails a whole
	// family; the breaker skips the family's remaining tasks instead of
	// burning the rest of the suite on it.
	Family string
	// Run executes the experiment under the engine contract: the result
	// is a function of cfg alone, ctx carries cancellation and the
	// worker pool for internal fan-out.
	Run func(ctx context.Context, cfg engine.Config) (engine.Result, error)
	// Claims are the paper's claims about this experiment, each a
	// predicate over its export rows (see Score).
	Claims []Claim
}

// scaled adapts a runner to the engine contract. The zero config is
// paper scale (each runner fills in its own defaults), quick is the
// test-scale config, and the task seed replaces the config's Seed, a
// uint64 field every config declares.
func scaled[C any, R engine.Result](run func(context.Context, C) (R, error), quick C) func(context.Context, engine.Config) (engine.Result, error) {
	return func(ctx context.Context, ec engine.Config) (engine.Result, error) {
		var cfg C
		if ec.Quick {
			cfg = quick
		}
		reflect.ValueOf(&cfg).Elem().FieldByName("Seed").SetUint(ec.Seed)
		return run(ctx, cfg)
	}
}

// fig4ClaimBlocks is the smallest Figure 4 sample the strong-vs-weak
// claim is scored on; smaller samples leave it not scored.
const fig4ClaimBlocks = 120

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig2", Artifact: "Figure 2", Family: "bpu",
			Description: "selection-logic learning curve for an irregular branch pattern",
			Run:         scaled(RunFig2, Fig2Config{Trials: 60}),
			Claims: []Claim{
				{"Fig 2", "first iteration of an irregular pattern mispredicts ~50%", func(rs *rows) (Status, string) {
					pass, misses := true, []string{}
					for _, r := range rs.where("kind", "point", "iteration", 1) {
						m := r.num("mean_misses")
						pass = pass && m >= 3.5
						misses = append(misses, fmt.Sprintf("%.2f", m))
					}
					return judge(pass, "first-iteration misses: %s", strings.Join(misses, " / "))
				}},
				{"Fig 2", "the 2-level predictor takes over after ~5-7 pattern repeats", func(rs *rows) (Status, string) {
					pass, horizons := true, []int{}
					for _, r := range rs.where("kind", "summary") {
						h := int(r.num("learning_horizon"))
						pass = pass && h >= 4 && h <= 8
						horizons = append(horizons, h)
					}
					return judge(pass, "learning horizons: %v", horizons)
				}},
			}},
		{ID: "table1", Artifact: "Table 1", Family: "bpu",
			Description: "prime/target/probe FSM transitions on all three CPUs",
			Run: func(ctx context.Context, ec engine.Config) (engine.Result, error) {
				return RunTable1All(ctx, ec.Seed)
			},
			Claims: []Claim{
				{"Table 1", "all eight prime/target/probe rows match on every CPU (incl. Skylake footnote)", func(rs *rows) (Status, string) {
					pass, counts := true, []string{}
					for _, m := range uarch.All() {
						want := PaperTable1(m.Name == "Skylake")
						got, match := rs.where("model", m.Name), 0
						for i, r := range got {
							if i < len(want) && r.str("observation") == string(want[i]) {
								match++
							}
						}
						pass = pass && len(got) == len(want) && match == len(want)
						counts = append(counts, fmt.Sprintf("%s %d/%d", m.Name, match, len(want)))
					}
					return judge(pass, "rows matching the paper: %s", strings.Join(counts, ", "))
				}},
			}},
		{ID: "fig4", Artifact: "Figure 4", Family: "pht",
			Description: "distribution of PHT states after randomization blocks",
			Run:         scaled(RunFig4, Fig4Config{Blocks: 50, Reps: 60, BlockBranches: 6000}),
			Claims: []Claim{
				{"Fig 4", "most (~83%) randomization blocks yield stable decodable PHT states", func(rs *rows) (Status, string) {
					s := rs.one("kind", "summary").num("stable_share")
					return judge(s >= 0.55 && s <= 0.99, "stable share: %.1f%%", 100*s)
				}},
				{"Fig 4", "strong states dominate weak states in the decoded distribution", func(rs *rows) (Status, string) {
					if blocks := int(rs.one("kind", "summary").num("blocks")); blocks < fig4ClaimBlocks {
						return NotScored, fmt.Sprintf("fig4 ran %d blocks; the comparison needs at least %d", blocks, fig4ClaimBlocks)
					}
					share := func(s core.StateClass) float64 { return rs.one("kind", "state", "state", s.String()).num("share") }
					strong := share(core.StateST) + share(core.StateSN)
					weak := share(core.StateWT) + share(core.StateWN)
					return judge(strong > weak, "strong %.1f%% vs weak %.1f%%", 100*strong, 100*weak)
				}},
			}},
		{ID: "fig5", Artifact: "Figure 5", Family: "pht",
			Description: "PHT mapping and size discovery via Hamming windows",
			// Sandy Bridge's 4096-entry PHT keeps the quick map small.
			Run: scaled(RunFig5, Fig5Config{Model: uarch.SandyBridge(), BlockBranches: 3000, Pairs: 60}),
			Claims: []Claim{
				{"Fig 5", "the H(w)/w minimum recovers the true PHT size", func(rs *rows) (Status, string) {
					r := rs.one("kind", "summary")
					found, want := int(r.num("discovered_size")), int(r.num("true_size"))
					return judge(found == want, "discovered %d, true %d", found, want)
				}},
			}},
		{ID: "fig6", Artifact: "Figure 6", Family: "covert",
			Description: "covert-channel decoding demonstration",
			Run:         scaled(RunFig6, Fig6Config{})},
		{ID: "table2", Artifact: "Table 2", Family: "covert",
			Description: "covert-channel error rates: 3 CPUs x settings x patterns",
			Run:         scaled(RunTable2, Table2Config{Bits: 1500, Runs: 2}),
			Claims: []Claim{
				{"Table 2", "error rate below 1-2% on Skylake and Haswell in both settings", func(rs *rows) (Status, string) {
					sl, sln := meanError(rs, "Skylake", Isolated), meanError(rs, "Skylake", Noisy)
					hw, hwn := meanError(rs, "Haswell", Isolated), meanError(rs, "Haswell", Noisy)
					return judge(sl < 0.01 && sln < 0.02 && hw < 0.01 && hwn < 0.02,
						"SL %.2f/%.2f%%, HSW %.2f/%.2f%%", 100*sl, 100*sln, 100*hw, 100*hwn)
				}},
				{"Table 2", "Sandy Bridge (smaller tables) shows the highest error rates", func(rs *rows) (Status, string) {
					sb := meanError(rs, "SandyBridge", Noisy)
					return judge(sb > meanError(rs, "Skylake", Noisy) && sb > meanError(rs, "Haswell", Noisy),
						"SB noisy %.2f%%", 100*sb)
				}},
				{"Table 2", "noise increases the error rate on every CPU", func(rs *rows) (Status, string) {
					pass, cells := true, []string{}
					for _, m := range uarch.All() {
						iso, noisy := meanError(rs, m.Name, Isolated), meanError(rs, m.Name, Noisy)
						pass = pass && noisy >= iso
						cells = append(cells, fmt.Sprintf("%s %.2f/%.2f%%", m.Name, 100*iso, 100*noisy))
					}
					return judge(pass, "isolated/noisy: %s", strings.Join(cells, ", "))
				}},
			}},
		{ID: "fig7", Artifact: "Figure 7", Family: "timing",
			Description: "branch latency distributions, hit vs miss",
			Run:         scaled(RunFig7, Fig7Config{Samples: 4000}),
			Claims: []Claim{
				{"Fig 7", "a misprediction has a clearly visible latency penalty", func(rs *rows) (Status, string) {
					d := rs.one("taken", false, "miss", true).num("mean") - rs.one("taken", false, "miss", false).num("mean")
					return judge(d > 30, "separation %.1f cycles", d)
				}},
			}},
		{ID: "fig8", Artifact: "Figure 8", Family: "timing",
			Description: "timing-detection error vs number of measurements",
			Run:         scaled(RunFig8, Fig8Config{MaxMeasurements: 11, Trials: 400}),
			Claims: []Claim{
				{"Fig 8", "first executions are unreliable (20-30%), second ~10%, averaging drives error toward 0", func(rs *rows) (Status, string) {
					points := rs.where()
					first, last := points[0], points[len(points)-1]
					return judge(first.num("error_first") > first.num("error_second") && last.num("error_second") < 0.03,
						"m=%d: %.1f%%/%.1f%%; m=%d: %.1f%%/%.1f%%",
						int(first.num("measurements")), 100*first.num("error_first"), 100*first.num("error_second"),
						int(last.num("measurements")), 100*last.num("error_first"), 100*last.num("error_second"))
				}},
			}},
		{ID: "fig9", Artifact: "Figure 9", Family: "timing",
			Description: "probe latency by primed PHT state",
			Run:         scaled(RunFig9, Fig9Config{Samples: 2500}),
			Claims: []Claim{
				{"Fig 9", "PHT states are distinguishable by probe timing alone", func(rs *rows) (Status, string) {
					mm, hh := math.Inf(1), math.Inf(-1)
					for _, r := range rs.where() {
						switch r.str("expected_pattern") {
						case string(core.PatternMM):
							mm = min(mm, r.num("second_mean"))
						case string(core.PatternHH):
							hh = max(hh, r.num("second_mean"))
						}
					}
					return judge(mm >= 160 && hh <= 155, "second probe: fastest MM %.1f, slowest HH %.1f cycles", mm, hh)
				}},
			}},
		{ID: "table3", Artifact: "Table 3", Family: "covert",
			Description: "covert channel with an SGX-enclave sender",
			Run:         scaled(RunTable3, Table3Config{Bits: 1500, Runs: 2}),
			Claims: []Claim{
				{"Table 3", "the SGX attack (OS-assisted) is at least as reliable as user space", func(rs *rows) (Status, string) {
					m := meanError(rs, "SGX", Isolated)
					return judge(m < 0.005, "SGX isolated mean error %.3f%%", 100*m)
				}},
			}},
		{ID: "mitigations", Artifact: "§10.2 (extension)", Family: "defense",
			Description: "covert-channel error under each proposed hardware defense",
			Run:         scaled(RunMitigations, MitigationsConfig{Bits: 800, Runs: 1}),
			Claims: []Claim{
				{"§10.2", "randomized indexing, partitioning and no-predict close the channel", func(rs *rows) (Status, string) {
					rate := func(m bpu.Mitigation) float64 { return rs.one("mitigation", m.String()).num("error_rate") }
					ri, pt, np := rate(bpu.MitigationRandomizedIndex), rate(bpu.MitigationPartitioned), rate(bpu.MitigationNoPredictSensitive)
					return judge(ri > 0.35 && pt > 0.35 && np > 0.35, "errors: %.0f%%/%.0f%%/%.0f%%", 100*ri, 100*pt, 100*np)
				}},
			}},
		{ID: "montgomery", Artifact: "§9.2", Family: "applications",
			Description: "Montgomery-ladder exponent recovery",
			Run:         scaled(RunMontgomery, MontgomeryConfig{ExponentBits: 128}),
			Claims: []Claim{
				{"§9.2", "Montgomery-ladder key bits recovered with near-zero error", func(rs *rows) (Status, string) {
					r := rs.one()
					rate := r.num("error_rate")
					return judge(rate < 0.02, "montgomery recovery: %d bit errors (%.2f%%)", int(r.num("bit_errors")), 100*rate)
				}},
			}},
		{ID: "jpeg", Artifact: "§9.2", Family: "applications",
			Description: "libjpeg IDCT block-structure recovery",
			Run:         scaled(RunJPEG, JPEGConfig{Blocks: 6})},
		{ID: "aslr", Artifact: "§9.2", Family: "applications",
			Description: "ASLR slide recovery via PHT collision scanning",
			Run:         scaled(RunASLR, ASLRConfig{Slides: 32, Reps: 5}),
			Claims: []Claim{
				{"§9.2", "ASLR slide recovered by collision scanning", func(rs *rows) (Status, string) {
					r := rs.one()
					return judge(r.flag("pinpointed"), "survivors: %d", int(r.num("multi_offset_survivors")))
				}},
			}},
		{ID: "ifconversion", Artifact: "§10.1 (extension)", Family: "applications",
			Description: "attack vs the if-converted (branchless) Montgomery ladder",
			Run:         scaled(RunIfConversion, IfConversionConfig{ExponentBits: 96})},
		{ID: "poisoning", Artifact: "§1 (extension)", Family: "defense",
			Description: "branch poisoning: forcing victim mispredictions on demand",
			Run:         scaled(RunPoisoning, PoisoningConfig{Rounds: 120})},
		{ID: "detection", Artifact: "§10.2 (extension)", Family: "defense",
			Description: "attack-footprint detector vs attacker and benign workloads",
			Run:         scaled(RunDetection, DetectionConfig{Bits: 120})},
		{ID: "slidingwindow", Artifact: "§9.2 (extension)", Family: "applications",
			Description: "partial key recovery from a sliding-window exponentiation",
			Run:         scaled(RunSlidingWindow, SlidingWindowConfig{ExponentBits: 128})},
		{ID: "smt", Artifact: "§1 (extension)", Family: "covert",
			Description: "cross-hyperthread covert channel without branch-granular control",
			Run:         scaled(RunSMT, SMTConfig{Bits: 600})},
		{ID: "predictors", Artifact: "§5 (extension)", Family: "covert",
			Description: "covert error by predictor organization (bimodal/hybrid/gshare)",
			Run:         scaled(RunPredictorAblation, PredictorAblationConfig{Bits: 800, Runs: 1})},
		{ID: "timingchannel", Artifact: "§8 (extension)", Family: "covert",
			Description: "covert channel with PMC vs rdtscp-only probing",
			Run:         scaled(RunTimingChannel, TimingChannelConfig{Bits: 800, Runs: 1})},
		{ID: "fsmwidth", Artifact: "§10.2 (extension)", Family: "covert",
			Description: "counter-width ablation: do wider saturating counters stop the attack?",
			Run:         scaled(RunFSMWidth, FSMWidthConfig{Bits: 700})},
		{ID: "robustness", Artifact: "§7 (extension)", Family: "covert",
			Description: "resilient vs naive attack loop under deterministic fault injection",
			Run: scaled(RunRobustness, RobustnessConfig{
				Bits:        220,
				Intensities: []float64{0, chaos.ModerateIntensity, chaos.HeavyIntensity},
				Budgets:     []int{0, 5},
				TimingBits:  140,
			})},
		{ID: "btb", Artifact: "§11 (baseline)", Family: "baseline",
			Description: "BranchScope vs the prior-work BTB eviction channel",
			Run:         scaled(RunBTBBaseline, BTBBaselineConfig{Bits: 600}),
			Claims: []Claim{
				{"§11", "BranchScope beats the BTB channel and ignores BTB defenses", func(rs *rows) (Status, string) {
					rate := func(channel string, flush bool) float64 {
						return rs.one("channel", channel, "btb_flush_defense", flush).num("error_rate")
					}
					bs, btb := rate("branchscope", false), rate("btb-eviction", false)
					bsFlushed, btbFlushed := rate("branchscope", true), rate("btb-eviction", true)
					return judge(bs < btb && btbFlushed > 0.35 && bsFlushed < 0.05,
						"BS %.2f%% vs BTB %.2f%% (flushed: %.2f%%/%.2f%%)", 100*bs, 100*btb, 100*bsFlushed, 100*btbFlushed)
				}},
			}},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Tasks adapts a slice of experiments to engine tasks for the runner.
func Tasks(exps []Experiment) []engine.Task {
	tasks := make([]engine.Task, len(exps))
	for i, e := range exps {
		tasks[i] = engine.Task{
			ID:          e.ID,
			Artifact:    e.Artifact,
			Description: e.Description,
			Family:      e.Family,
			Run:         e.Run,
		}
	}
	return tasks
}
