package experiments

import (
	"context"
	"fmt"
	"strings"

	"branchscope/internal/core"
	"branchscope/internal/engine"
	"branchscope/internal/uarch"
)

// Table1Row is one row of the paper's Table 1: a prime/target/probe
// combination and the observed probe pattern.
type Table1Row struct {
	Prime       string // "TTT" or "NNN"
	Target      string // "T" or "N"
	Probe       string // "TT" or "NN"
	Observation core.Pattern
}

// Table1Result holds the eight rows for one model.
type Table1Result struct {
	Model   string
	Entries []Table1Row
}

// RunTable1 reproduces the §6.1 prime/target/probe experiment on one
// model: a single branch with no previous history is primed three times,
// executed once in the target stage, and probed twice, with the
// prediction outcome of each probe execution read from the PMC. A fresh
// machine is used per row so the branch truly has no history.
func RunTable1(ctx context.Context, m uarch.Model, seed uint64) (Table1Result, error) {
	res := Table1Result{Model: m.Name}
	dirs := map[byte]bool{'T': true, 'N': false}
	for _, prime := range []string{"TTT", "NNN"} {
		for _, target := range []string{"T", "N"} {
			for _, probe := range []string{"TT", "NN"} {
				if err := ctx.Err(); err != nil {
					return Table1Result{}, fmt.Errorf("experiments: table1: %w", err)
				}
				c := m.Clockless().NewCore(seed)
				hw := c.NewContext(1)
				const addr = 0x7700_4410
				for i := range prime {
					hw.Branch(addr, dirs[prime[i]])
				}
				hw.Branch(addr, dirs[target[0]])
				pat := core.ProbePMC(hw, addr, dirs[probe[0]])
				res.Entries = append(res.Entries, Table1Row{
					Prime: prime, Target: target, Probe: probe, Observation: pat,
				})
			}
		}
	}
	return res, nil
}

// Table1AllResult is Table 1 reproduced on every simulated CPU.
type Table1AllResult struct {
	Results []Table1Result
}

// RunTable1All reproduces Table 1 on all three CPUs. The per-model
// sub-runs execute on the context's worker pool (see engine.WithPool);
// each model's seed is derived from (seed, "table1", model name) so the
// output is identical at any parallelism level.
func RunTable1All(ctx context.Context, seed uint64) (Table1AllResult, error) {
	models := uarch.All()
	results, err := engine.Map(ctx, len(models), func(i int) (Table1Result, error) {
		return RunTable1(ctx, models[i], engine.DeriveSeed(seed, "table1", models[i].Name))
	})
	if err != nil {
		return Table1AllResult{}, err
	}
	return Table1AllResult{Results: results}, nil
}

// String implements fmt.Stringer.
func (r Table1AllResult) String() string {
	var b strings.Builder
	for _, m := range r.Results {
		b.WriteString(m.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Rows implements engine.Result.
func (r Table1AllResult) Rows() []engine.Row {
	var rows []engine.Row
	for _, m := range r.Results {
		rows = append(rows, m.Rows()...)
	}
	return rows
}

// PaperTable1 returns the paper's reported observations for a model:
// the eight rows in RunTable1's enumeration order (prime TTT then NNN,
// target T then N, probe TT then NN). skylake selects the footnote-1
// variant (row TTT/N/NN observes MM instead of MH).
func PaperTable1(skylake bool) []core.Pattern {
	rows := []core.Pattern{
		"HH", // TTT T TT
		"MM", // TTT T NN
		"HH", // TTT N TT
		"MH", // TTT N NN (footnote: MM on Skylake)
		"MH", // NNN T TT
		"HH", // NNN T NN
		"MM", // NNN N TT
		"HH", // NNN N NN
	}
	if skylake {
		rows[3] = "MM"
	}
	return rows
}

// String renders the table in the paper's layout.
func (r Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: FSM transitions for a single PHT entry (%s)\n", r.Model)
	fmt.Fprintf(&b, "%-6s %-7s %-6s %s\n", "Prime", "Target", "Probe", "Observation")
	want := PaperTable1(r.Model == "Skylake")
	for i, row := range r.Entries {
		marker := ""
		if row.Observation != want[i] {
			marker = "  <- differs from paper"
		}
		fmt.Fprintf(&b, "%-6s %-7s %-6s %s%s\n", row.Prime, row.Target, row.Probe, row.Observation, marker)
	}
	return b.String()
}

// Rows implements engine.Result.
func (r Table1Result) Rows() []engine.Row {
	want := PaperTable1(r.Model == "Skylake")
	rows := make([]engine.Row, 0, len(r.Entries))
	for i, row := range r.Entries {
		rows = append(rows, engine.Row{
			engine.F("model", r.Model),
			engine.F("prime", row.Prime),
			engine.F("target", row.Target),
			engine.F("probe", row.Probe),
			engine.F("observation", string(row.Observation)),
			engine.F("matches_paper", row.Observation == want[i]),
		})
	}
	return rows
}
