package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Reproduction scorecard: the paper's qualitative claims — the shapes,
// orderings and crossovers the reproduction is accountable for (see
// EXPERIMENTS.md) — judged on a run's branchscope.experiments/v1
// export. Each claim is a predicate over its own experiment's rows,
// addressed by column, so a live run, a resumed or fabric run and an
// archived export file are scored the same way, without the simulator.
// `cmd/experiments -check` prints the scorecard of the run it has just
// made.

// exportSchema is the schema engine.WriteJSON stamps on an export.
const exportSchema = "branchscope.experiments/v1"

// Export is the part of a branchscope.experiments/v1 export (see
// engine.WriteJSON) that the scorecard reads.
type Export struct {
	Schema      string               `json:"schema"`
	Experiments []ExportedExperiment `json:"experiments"`
}

// ExportedExperiment is one experiment's slot in an export.
type ExportedExperiment struct {
	ID string `json:"id"`
	// Error is empty when the experiment succeeded.
	Error string `json:"error"`
	// Rows are the result's rows as decoded JSON: numbers are float64.
	Rows []map[string]any `json:"rows"`
}

// ReadExport decodes a branchscope.experiments/v1 export.
func ReadExport(r io.Reader) (Export, error) {
	var x Export
	if err := json.NewDecoder(r).Decode(&x); err != nil {
		return Export{}, fmt.Errorf("experiments: decoding export: %w", err)
	}
	if x.Schema != exportSchema {
		return Export{}, fmt.Errorf("experiments: export schema %q, want %q", x.Schema, exportSchema)
	}
	return x, nil
}

// Status is a claim's verdict on one export.
type Status int

const (
	// Pass: the claim holds on the export's rows.
	Pass Status = iota
	// Fail: the claim does not hold, its experiment failed, or the rows
	// it reads are missing.
	Fail
	// NotScored: the export cannot judge the claim — its experiment did
	// not run, or ran too small a sample.
	NotScored
)

// Claim is one of the paper's claims about an experiment.
type Claim struct {
	// Artifact is the paper table/figure the claim belongs to.
	Artifact string
	// Text is the paper's statement.
	Text string
	// check judges the experiment's rows and returns the values it read
	// (or, when not scored, why).
	check func(rs *rows) (Status, string)
}

// Check is one claim's verdict on one export.
type Check struct {
	Artifact string
	Claim    string
	Status   Status
	// Detail quotes the export values the claim read, or says why the
	// claim failed or was not scored.
	Detail string
}

// Scorecard is an export's verdict on every registered claim, in
// registry order.
type Scorecard struct {
	Checks []Check
}

// Score judges an export against the claims of every experiment in the
// registry. A claim whose experiment is not in the export is not
// scored; a claim whose experiment failed fails.
func Score(x Export) Scorecard {
	ran := map[string]ExportedExperiment{}
	for _, e := range x.Experiments {
		ran[e.ID] = e
	}
	var sc Scorecard
	for _, e := range All() {
		got, ok := ran[e.ID]
		for _, c := range e.Claims {
			ck := Check{Artifact: c.Artifact, Claim: c.Text}
			switch {
			case !ok:
				ck.Status, ck.Detail = NotScored, e.ID+" did not run"
			case got.Error != "":
				ck.Status, ck.Detail = Fail, e.ID+" failed: "+got.Error
			default:
				rs := &rows{id: e.ID, all: got.Rows}
				ck.Status, ck.Detail = c.check(rs)
				if rs.miss != "" {
					ck.Status, ck.Detail = Fail, rs.miss
				}
			}
			sc.Checks = append(sc.Checks, ck)
		}
	}
	return sc
}

// count returns how many checks have status st.
func (s Scorecard) count(st Status) int {
	n := 0
	for _, c := range s.Checks {
		if c.Status == st {
			n++
		}
	}
	return n
}

// Failed counts the claims that do not hold.
func (s Scorecard) Failed() int { return s.count(Fail) }

// String renders the scorecard.
func (s Scorecard) String() string {
	var b strings.Builder
	pass := s.count(Pass)
	fmt.Fprintf(&b, "Reproduction scorecard: %d/%d scored paper claims hold", pass, pass+s.Failed())
	if n := s.count(NotScored); n > 0 {
		fmt.Fprintf(&b, " (%d not scored)", n)
	}
	b.WriteString("\n")
	for _, c := range s.Checks {
		mark, detail := "PASS", c.Detail
		switch c.Status {
		case Fail:
			mark = "FAIL"
		case NotScored:
			mark, detail = "----", "not scored: "+c.Detail
		}
		fmt.Fprintf(&b, "  [%s] %-9s %s\n", mark, c.Artifact, c.Claim)
		if detail != "" {
			fmt.Fprintf(&b, "          %s\n", detail)
		}
	}
	return b.String()
}

// judge turns a claim's predicate and the values it read into a verdict.
func judge(pass bool, format string, args ...any) (Status, string) {
	st := Pass
	if !pass {
		st = Fail
	}
	return st, fmt.Sprintf(format, args...)
}

// rows are one experiment's export rows as a claim reads them. A lookup
// that finds no matching row, or a row without the column asked for,
// records the first such miss, and Score fails the claim with the miss
// as its detail. A missed row lookup still returns one empty row, so a
// claim reads on without guarding each lookup.
type rows struct {
	id   string
	all  []map[string]any
	miss string
}

// row is one export row.
type row struct {
	rs   *rows
	addr string
	cols map[string]any
}

// missed records a failed lookup unless an earlier one is recorded.
func (rs *rows) missed(format string, args ...any) {
	if rs.miss == "" {
		rs.miss = fmt.Sprintf(format, args...)
	}
}

// where returns, in export order, the rows whose columns equal the
// alternating key/value pairs of match (an int matches a JSON number);
// with no pairs it returns every row.
func (rs *rows) where(match ...any) []row {
	var pairs []string
	for i := 0; i+1 < len(match); i += 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%v", match[i], match[i+1]))
	}
	addr := rs.id + " row"
	if len(pairs) > 0 {
		addr += " {" + strings.Join(pairs, ", ") + "}"
	}
	var out []row
	for _, cols := range rs.all {
		if matches(cols, match) {
			out = append(out, row{rs, addr, cols})
		}
	}
	if len(out) == 0 {
		rs.missed("%s missing", addr)
		out = []row{{rs: rs, addr: addr}}
	}
	return out
}

// one returns the first row matching the key/value pairs.
func (rs *rows) one(match ...any) row { return rs.where(match...)[0] }

// matches reports whether cols holds every key/value pair of match.
func matches(cols map[string]any, match []any) bool {
	for i := 0; i+1 < len(match); i += 2 {
		key, _ := match[i].(string)
		want := match[i+1]
		if n, ok := want.(int); ok {
			want = float64(n)
		}
		if cols[key] != want {
			return false
		}
	}
	return true
}

// num reads a numeric column.
func (r row) num(col string) float64 {
	v, ok := r.cols[col].(float64)
	if !ok {
		r.rs.missed("%s has no number %q", r.addr, col)
	}
	return v
}

// flag reads a boolean column.
func (r row) flag(col string) bool {
	v, ok := r.cols[col].(bool)
	if !ok {
		r.rs.missed("%s has no boolean %q", r.addr, col)
	}
	return v
}

// str reads a string column.
func (r row) str(col string) string {
	v, ok := r.cols[col].(string)
	if !ok {
		r.rs.missed("%s has no string %q", r.addr, col)
	}
	return v
}

// meanError is a Table 2-shaped row's error rate averaged over the
// three bit patterns.
func meanError(rs *rows, model string, s Setting) float64 {
	r := rs.one("model", model, "setting", s.String())
	return (r.num("all_zeros") + r.num("all_ones") + r.num("random")) / 3
}
