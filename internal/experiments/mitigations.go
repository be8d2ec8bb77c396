package experiments

import (
	"context"
	"fmt"
	"strings"

	"branchscope/internal/bpu"
	"branchscope/internal/engine"
	"branchscope/internal/sched"
	"branchscope/internal/stats"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// MitigationsConfig parameterizes the §10.2 defense ablation: the covert
// channel is re-measured on a Skylake machine hardened with each of the
// proposed hardware mitigations, using a random bit pattern in the
// isolated setting. The attack's own pre-attack search is allowed to do
// its best against each defense.
type MitigationsConfig struct {
	Bits int
	Runs int
	// StochasticP is the update probability of the stochastic-FSM
	// defense variant.
	StochasticP float64
	Seed        uint64
}

func (c MitigationsConfig) withDefaults() MitigationsConfig {
	if c.Bits == 0 {
		c.Bits = 4000
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	if c.StochasticP == 0 {
		c.StochasticP = 0.7
	}
	return c
}

// MitigationRow is one ablation row.
type MitigationRow struct {
	Mitigation bpu.Mitigation
	ErrorRate  float64
	// SetupFailedRuns counts runs where the pre-attack search found no
	// usable block (the defense broke the channel before a single bit
	// moved).
	SetupFailedRuns int
}

// MitigationsResult holds the ablation.
type MitigationsResult struct {
	Config MitigationsConfig
	Cells  []MitigationRow
}

// RunMitigations regenerates the defense ablation. The five defenses
// run as independent units on the context's worker pool with per-defense
// derived seeds.
func RunMitigations(ctx context.Context, cfg MitigationsConfig) (MitigationsResult, error) {
	cfg = cfg.withDefaults()
	res := MitigationsResult{Config: cfg}
	cases := []bpu.Mitigation{
		bpu.MitigationNone,
		bpu.MitigationRandomizedIndex,
		bpu.MitigationPartitioned,
		bpu.MitigationNoPredictSensitive,
		bpu.MitigationStochasticFSM,
	}
	rows, err := engine.Map(ctx, len(cases), func(i int) (MitigationRow, error) {
		mit := cases[i]
		m := uarch.Skylake()
		m.BPU.Mitigation = mit
		switch mit {
		case bpu.MitigationRandomizedIndex:
			m.BPU.IndexKey = 0x5a5a_1234_9e37_79b9
		case bpu.MitigationPartitioned:
			m.BPU.Domains = 4
		case bpu.MitigationStochasticFSM:
			m.BPU.StochasticP = cfg.StochasticP
		}
		var prepare func(*sched.System)
		if mit == bpu.MitigationNoPredictSensitive {
			prepare = func(sys *sched.System) {
				// The developer marked the secret-dependent branch's
				// neighbourhood sensitive (§10.2).
				sys.Core().BPU().MarkSensitive(victims.SecretBranchAddr-0x40, victims.SecretBranchAddr+0x40)
			}
		}
		c, err := RunCovert(ctx, CovertConfig{
			Model: m, Setting: Isolated, Pattern: RandomBits,
			Bits: cfg.Bits, Runs: cfg.Runs, Prepare: prepare,
			Seed: engine.DeriveSeed(cfg.Seed, "mitigations", mit.String()),
		})
		if err != nil {
			return MitigationRow{}, fmt.Errorf("mitigation %s: %w", mit, err)
		}
		return MitigationRow{
			Mitigation:      mit,
			ErrorRate:       c.ErrorRate,
			SetupFailedRuns: c.SetupFailed,
		}, nil
	})
	if err != nil {
		return MitigationsResult{}, err
	}
	res.Cells = rows
	return res, nil
}

// String renders the ablation table.
func (r MitigationsResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Mitigation ablation (§10.2): covert-channel error under each defense")
	fmt.Fprintf(&b, "(Skylake, isolated, random bits; 50%% = channel fully closed)\n")
	for _, row := range r.Cells {
		note := ""
		if row.SetupFailedRuns > 0 {
			note = fmt.Sprintf("  (pre-attack search failed in %d run(s))", row.SetupFailedRuns)
		}
		fmt.Fprintf(&b, "  %-22s %8s%s\n", row.Mitigation, stats.Percent(row.ErrorRate), note)
	}
	return b.String()
}

// Rows implements engine.Result: one row per defense.
func (r MitigationsResult) Rows() []engine.Row {
	rows := make([]engine.Row, 0, len(r.Cells))
	for _, row := range r.Cells {
		rows = append(rows, engine.Row{
			engine.F("mitigation", row.Mitigation.String()),
			engine.F("error_rate", row.ErrorRate),
			engine.F("setup_failed_runs", row.SetupFailedRuns),
		})
	}
	return rows
}
