package experiments

import (
	"context"
	"fmt"
	"strings"

	"branchscope/internal/engine"
	"branchscope/internal/stats"
	"branchscope/internal/uarch"
)

// Table2Config parameterizes the §7 covert-channel benchmark grid: three
// CPUs × {isolated, with noise} × {all 0, all 1, random}.
type Table2Config struct {
	// Bits per run. The paper transmits 1e6 bits; the default here is
	// smaller to keep the harness fast — raise it to tighten the
	// estimates.
	Bits int
	// Runs averaged per cell (the paper uses 10).
	Runs int
	// Models defaults to the paper's three CPUs.
	Models []uarch.Model
	// Seed drives all randomness.
	Seed uint64
}

func (c Table2Config) withDefaults() Table2Config {
	if c.Bits == 0 {
		c.Bits = 20000
	}
	if c.Runs == 0 {
		c.Runs = 10
	}
	if c.Models == nil {
		c.Models = uarch.All()
	}
	return c
}

// Table2Result holds the full grid, indexed [model][setting][pattern].
type Table2Result struct {
	Config Table2Config
	Cells  []Table2Row
}

// Table2Row is one line of the paper's Table 2 (a model × setting).
type Table2Row struct {
	Model   string
	Setting Setting
	// Rates indexed by BitPattern: All 0, All 1, Random.
	Rates [3]float64
}

// RunTable2 regenerates Table 2. The grid's model × setting cells run
// as independent units on the context's worker pool (engine.WithPool);
// each cell's seed is derived from (seed, "table2", model, setting,
// pattern), so the table is identical at any parallelism level.
func RunTable2(ctx context.Context, cfg Table2Config) (Table2Result, error) {
	cfg = cfg.withDefaults()
	res := Table2Result{Config: cfg}
	type unit struct {
		model   uarch.Model
		setting Setting
	}
	var units []unit
	for _, m := range cfg.Models {
		for _, setting := range []Setting{Isolated, Noisy} {
			units = append(units, unit{m, setting})
		}
	}
	cells, err := engine.Map(ctx, len(units), func(i int) (Table2Row, error) {
		u := units[i]
		row := Table2Row{Model: u.model.Name, Setting: u.setting}
		for _, pat := range []BitPattern{AllZeros, AllOnes, RandomBits} {
			c, err := RunCovert(ctx, CovertConfig{
				Model: u.model, Setting: u.setting, Pattern: pat,
				Bits: cfg.Bits, Runs: cfg.Runs,
				Seed: engine.DeriveSeed(cfg.Seed, "table2", u.model.Name, u.setting.String(), pat.String()),
			})
			if err != nil {
				return Table2Row{}, fmt.Errorf("table2 %s %s %s: %w", u.model.Name, u.setting, pat, err)
			}
			row.Rates[pat] = c.ErrorRate
		}
		return row, nil
	})
	if err != nil {
		return Table2Result{}, err
	}
	res.Cells = cells
	return res, nil
}

// String renders the grid in the paper's layout.
func (r Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: average error rate for transmitting bits using BranchScope\n")
	fmt.Fprintf(&b, "(%d bits/run, %d runs per cell)\n", r.Config.Bits, r.Config.Runs)
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

// rowJSON flattens one Table2Row-shaped line into an export row.
func (row Table2Row) rowJSON() engine.Row {
	return engine.Row{
		engine.F("model", row.Model),
		engine.F("setting", row.Setting.String()),
		engine.F("all_zeros", row.Rates[AllZeros]),
		engine.F("all_ones", row.Rates[AllOnes]),
		engine.F("random", row.Rates[RandomBits]),
	}
}

// Rows implements engine.Result.
func (r Table2Result) Rows() []engine.Row {
	rows := make([]engine.Row, 0, len(r.Cells))
	for _, row := range r.Cells {
		rows = append(rows, row.rowJSON())
	}
	return rows
}
