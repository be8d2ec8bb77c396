package experiments

import (
	"context"
	"fmt"
	"strings"

	"branchscope/internal/core"
	"branchscope/internal/engine"
	"branchscope/internal/fsm"
	"branchscope/internal/noise"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/stats"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// Counter-width ablation — §10.2 floats "chang[ing] the prediction FSM"
// as a defense direction. A natural candidate is widening the saturating
// counters: from a deep strong state, a single victim execution cannot
// cross the prediction boundary, so the standard strong-state dictionaries
// go blind. The ablation shows why this fails as a defense: the attacker's
// block search simply selects blocks that prime *boundary* states (the
// widened counter's weak states), where one victim execution still flips
// the next prediction. The attack generalizes through the per-state
// dictionaries of the multi-target machinery; what the defender buys is a
// smaller usable prime-state set (longer pre-attack search), not safety.

// FSMWidthConfig parameterizes the ablation.
type FSMWidthConfig struct {
	// Widths are the per-side state counts evaluated (2 = textbook
	// 2-bit counter).
	Widths []int
	Bits   int
	Seed   uint64
}

func (c FSMWidthConfig) withDefaults() FSMWidthConfig {
	if c.Widths == nil {
		c.Widths = []int{1, 2, 3, 4}
	}
	if c.Bits == 0 {
		c.Bits = 3000
	}
	return c
}

// FSMWidthRow is one counter width's outcome.
type FSMWidthRow struct {
	// Width is the per-side state count (a width-w counter has 2w
	// states).
	Width int
	// ErrorRate is the covert error; 0.5 when no usable block exists.
	ErrorRate float64
	// PrimedState is the state class the search settled on.
	PrimedState core.StateClass
	// SearchCandidates counts blocks tried before one was usable (-1
	// when the search failed).
	SearchCandidates int
}

// FSMWidthResult holds the ablation.
type FSMWidthResult struct {
	Config FSMWidthConfig
	Points []FSMWidthRow
}

// RunFSMWidth regenerates the counter-width ablation on Skylake-size
// tables with symmetric Saturating(w, w) counters. The per-width units
// run on the context's worker pool; each width's seed stream depends
// only on (seed, width), so results are scheduling-independent.
func RunFSMWidth(ctx context.Context, cfg FSMWidthConfig) (FSMWidthResult, error) {
	cfg = cfg.withDefaults()
	res := FSMWidthResult{Config: cfg}
	rows, err := engine.Map(ctx, len(cfg.Widths), func(i int) (FSMWidthRow, error) {
		return runFSMWidthOne(ctx, cfg, cfg.Widths[i])
	})
	if err != nil {
		return FSMWidthResult{}, err
	}
	res.Points = rows
	return res, nil
}

func runFSMWidthOne(ctx context.Context, cfg FSMWidthConfig, w int) (FSMWidthRow, error) {
	row := FSMWidthRow{Width: w, SearchCandidates: -1, ErrorRate: 0.5}
	m := uarch.Skylake()
	m.Name = fmt.Sprintf("Skylake-%dbitFSM", w)
	m.BPU.FSM = fsm.Saturating(fmt.Sprintf("sym-%d", w), w, w, w-1)

	r := rng.New(cfg.Seed + uint64(w)*7919 + 28)
	sys := sched.NewSystem(m.Clockless(), r.Uint64())
	secret := r.Bits(cfg.Bits)
	victim := sys.Spawn("sender", victims.LoopingSecretArraySender(secret, 0))
	defer victim.Kill()
	noiseThread := sys.Spawn("noise", noise.Process(r.Uint64(), noise.DefaultRegion, 1<<22))
	defer noiseThread.Kill()
	spy := sys.NewProcess("spy")

	// The generalized (per-state dictionary) session: deep strong
	// states are unusable on wide counters, so the SN-only standard
	// session would fail where this one adapts. Count the candidates
	// consumed by retrying with growing budgets.
	var ms *core.MultiSession
	var err error
	budgets := []int{50, 450, 3500}
	tried := 0
	for _, b := range budgets {
		ms, err = core.NewMultiSession(spy, r.Split(), core.MultiConfig{
			Targets:       []uint64{victims.SecretBranchAddr},
			MaxCandidates: b,
			AllowST:       w <= 2, // deep taken states are ambiguous beyond 2-bit
		})
		tried += b
		if err == nil {
			break
		}
	}
	if err != nil {
		return row, nil
	}
	row.SearchCandidates = tried
	row.PrimedState = ms.Targets()[0].Primed

	budget := m.NoiseIsolatedBranches
	got := make([]bool, len(secret))
	for i := range secret {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return FSMWidthRow{}, fmt.Errorf("experiments: fsmwidth %d: %w", w, err)
			}
		}
		ms.Prime()
		noiseThread.Step(budget / 2)
		victim.StepBranches(1)
		noiseThread.Step(budget - budget/2)
		got[i] = ms.ProbeAll()[0]
	}
	row.ErrorRate = stats.ErrorRate(got, secret)
	return row, nil
}

// String implements fmt.Stringer.
func (r FSMWidthResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Counter-width ablation (§10.2 FSM changes): covert error by counter depth")
	fmt.Fprintln(&b, "(Skylake tables, isolated noise, generalized per-state dictionaries)")
	for _, row := range r.Points {
		if row.SearchCandidates < 0 {
			fmt.Fprintf(&b, "  %d state(s)/side: no usable block found — channel closed at this width\n", row.Width)
			continue
		}
		fmt.Fprintf(&b, "  %d state(s)/side: error %7s  (primed %v, <=%d candidates searched)\n",
			row.Width, stats.Percent(row.ErrorRate), row.PrimedState, row.SearchCandidates)
	}
	return b.String()
}

// Rows implements engine.Result: one row per counter width.
func (r FSMWidthResult) Rows() []engine.Row {
	rows := make([]engine.Row, 0, len(r.Points))
	for _, row := range r.Points {
		rows = append(rows, engine.Row{
			engine.F("width", row.Width),
			engine.F("error_rate", row.ErrorRate),
			engine.F("primed_state", row.PrimedState.String()),
			engine.F("search_candidates", row.SearchCandidates),
		})
	}
	return rows
}
