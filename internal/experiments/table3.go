package experiments

import (
	"context"
	"fmt"
	"strings"

	"branchscope/internal/engine"
	"branchscope/internal/stats"
	"branchscope/internal/uarch"
)

// Table3Config parameterizes the §9.2 SGX covert-channel benchmark: the
// sender (trojan) runs inside an SGX enclave on the Skylake machine and
// the spy is a regular process assisted by the malicious OS.
type Table3Config struct {
	Bits int
	Runs int
	Seed uint64
}

func (c Table3Config) withDefaults() Table3Config {
	if c.Bits == 0 {
		c.Bits = 20000
	}
	if c.Runs == 0 {
		c.Runs = 10
	}
	return c
}

// Table3Result holds the two SGX rows.
type Table3Result struct {
	Config Table3Config
	Cells  []Table2Row // reuses the row shape: setting × three patterns
}

// RunTable3 regenerates Table 3. The two setting rows run as
// independent units on the context's worker pool, with per-cell seeds
// derived from (seed, "table3", setting, pattern).
func RunTable3(ctx context.Context, cfg Table3Config) (Table3Result, error) {
	cfg = cfg.withDefaults()
	m := uarch.Skylake()
	res := Table3Result{Config: cfg}
	settings := []Setting{Noisy, Isolated} // the paper lists noise first
	rows, err := engine.Map(ctx, len(settings), func(i int) (Table2Row, error) {
		setting := settings[i]
		row := Table2Row{Model: "SGX", Setting: setting}
		for _, pat := range []BitPattern{AllZeros, AllOnes, RandomBits} {
			c, err := RunCovert(ctx, CovertConfig{
				Model: m, Setting: setting, Pattern: pat, SGX: true,
				Bits: cfg.Bits, Runs: cfg.Runs,
				Seed: engine.DeriveSeed(cfg.Seed, "table3", setting.String(), pat.String()),
			})
			if err != nil {
				return Table2Row{}, fmt.Errorf("table3 %s %s: %w", setting, pat, err)
			}
			row.Rates[pat] = c.ErrorRate
		}
		return row, nil
	})
	if err != nil {
		return Table3Result{}, err
	}
	res.Cells = rows
	return res, nil
}

// String renders the SGX grid in the paper's layout.
func (r Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: SGX covert channel error rate (trojan in enclave, OS-assisted spy)\n")
	fmt.Fprintf(&b, "(%d bits/run, %d runs per cell, Skylake)\n", r.Config.Bits, r.Config.Runs)
	fmt.Fprintf(&b, "%-26s %8s %8s %8s\n", "", "All 0", "All 1", "Random")
	for _, row := range r.Cells {
		fmt.Fprintf(&b, "%-26s %8s %8s %8s\n",
			fmt.Sprintf("%s %s", row.Model, row.Setting),
			stats.Percent(row.Rates[AllZeros]),
			stats.Percent(row.Rates[AllOnes]),
			stats.Percent(row.Rates[RandomBits]))
	}
	return b.String()
}

// Rows implements engine.Result.
func (r Table3Result) Rows() []engine.Row {
	rows := make([]engine.Row, 0, len(r.Cells))
	for _, row := range r.Cells {
		rows = append(rows, row.rowJSON())
	}
	return rows
}
