package cpu

import "branchscope/internal/bpu"

// settleEvery is Repeat's checking cadence: it checks every
// settleEvery-th repetition, so it simulates at most settleEvery−1
// repetitions past the one that settles. A check copies and compares
// the predictor state (about 150 KB on the Skylake model);
// BenchmarkBlockSearch measured cadences from 1 to 8 within a few
// percent of each other.
const settleEvery = 4

// settleRecord is the machine as Repeat recorded it before a checked
// repetition. A context keeps one across calls, so the search's
// thousands of analyses reuse its buffers.
type settleRecord struct {
	state bpu.Snapshot
	diag  bpu.Diagnostics
	pmc   [numEvents]uint64
}

// Repeat runs rep n times on this context and returns how many of the
// repetitions it simulated. It is a harness memoization, like the PHT
// mapper's checkpoint/replay: the code that rep runs observes exactly
// what n simulated repetitions would have shown it.
//
// Repeat stops simulating once the machine has settled: when a checked
// repetition leaves the predictor state (PHT, selector, GHR, tags and
// BTB) as it found it, every later repetition would repeat that one
// exactly. Repeat then adds n−simulated times that repetition's deltas
// to the context's PMCs and to the unit's lifetime diagnostics
// (commits, mispredicts and the heatmap) and returns; the caller fills
// the remaining repetitions' observations with its last ones.
//
// It may settle only where a repetition is a function of the
// predictor state it starts from: on a clockless core (no timing
// draws), with no retire hook on this context, no PMC read fault on
// the core and a deterministic predictor (no §10.2 stochastic FSM).
// Anywhere else it calls rep n times. The caller's side of the
// contract: rep runs only on this context and draws no randomness, and
// its observations depend on counter differences within the
// repetition, not on absolute counter values.
func (x *Context) Repeat(n int, rep func()) (simulated int) {
	c := x.core
	if c.rnd != nil || x.hook != nil || c.faults.PMC != nil || !c.bpuUnit.Deterministic() {
		for i := 0; i < n; i++ {
			rep()
		}
		return n
	}
	if x.settle == nil {
		x.settle = new(settleRecord)
	}
	rec, u := x.settle, c.bpuUnit
	for i := 1; i <= n; i++ {
		if i%settleEvery != 0 || i == n {
			rep()
			continue
		}
		u.SnapshotInto(&rec.state)
		u.DiagnosticsInto(&rec.diag)
		rec.pmc = x.pmc
		rep()
		if u.MatchesSnapshot(&rec.state) {
			k := uint64(n - i)
			for e := range x.pmc {
				x.pmc[e] += k * (x.pmc[e] - rec.pmc[e])
			}
			u.RepeatDiagnostics(&rec.diag, k)
			return i
		}
	}
	return n
}
