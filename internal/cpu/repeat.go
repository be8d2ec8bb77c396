package cpu

import (
	"sync"

	"branchscope/internal/bpu"
)

// settleEvery is Repeat's checking cadence: it checks every
// settleEvery-th repetition, so it simulates at most settleEvery−1
// repetitions past the one that settles. A check copies and compares
// the predictor state and the icache (about 160 KB on the Skylake
// model); BenchmarkBlockSearch measured cadences from 1 to 8 within a
// few percent of each other on clockless machines.
const settleEvery = 4

// settleRecord is the machine as Repeat recorded it before a checked
// repetition, and that repetition's timing tape.
type settleRecord struct {
	state  bpu.Snapshot
	diag   bpu.Diagnostics
	pmc    [numEvents]uint64
	icache [ICacheLines]icacheEntry
	clock  uint64
	tape   timingTape
}

// settleRecords recycles Repeat's records, about 160 KB each on the
// Skylake model, across calls and machines: a search makes thousands of
// calls, and the covert sender builds a fresh machine per message.
var settleRecords = sync.Pool{New: func() any { return new(settleRecord) }}

// tapeOp is one retired branch or nop on a timing tape.
type tapeOp uint8

const (
	// tapeMiss marks an op whose icache lookup missed: it drew a miss
	// latency.
	tapeMiss tapeOp = 1 << iota
	// tapeJitter marks a branch: it drew its jitter after the icache
	// lookup.
	tapeJitter
	// tapeBTBMiss marks a taken branch whose target missed in the BTB.
	// It draws nothing; it only counts toward cpu.btb_misses.
	tapeBTBMiss
)

// timingTape is what a repetition drew from the core RNG, in order, and
// what it did that the context's PMCs do not count. Repeat attaches one
// to the core for its checked repetition; branchSite and Nop append
// their ops, and clock reads mark it. The ops of a clockless core draw
// nothing, so its tape holds no ops.
type timingTape struct {
	ops []tapeOp
	// drawn is the sum of the cycles the ops' draws added to the clock.
	drawn uint64
	// pmcReads counts ReadPMC calls.
	pmcReads uint64
	// clockRead is set by ReadTSC and Core.Clock: a repetition that read
	// the clock observed its draws, so it cannot be replayed.
	clockRead bool
}

// record appends one op and the cycles its draws added. It stays out of
// line so the serial branch path pays only a nil check for it when no
// tape is attached.
//
//go:noinline
func (t *timingTape) record(op tapeOp, drawn uint64) {
	t.ops = append(t.ops, op)
	t.drawn += drawn
}

// count returns how many of the tape's ops carry flag.
func (t *timingTape) count(flag tapeOp) uint64 {
	n := uint64(0)
	for _, op := range t.ops {
		if op&flag != 0 {
			n++
		}
	}
	return n
}

// replay draws the tape's op sequence once more from the core RNG and
// adds the drawn cycles to the clock: for each op the miss latency,
// then the jitter, in the order simulation draws them.
func (c *Core) replay(t *timingTape) {
	for _, op := range t.ops {
		if op&tapeMiss != 0 {
			c.clock += c.missCycles()
		}
		if op&tapeJitter != 0 {
			c.clock += c.jitter()
		}
	}
}

// Repeat runs rep n times on this context and returns how many of the
// repetitions it simulated. It is a harness memoization, like the PHT
// mapper's checkpoint/replay: the code that rep runs observes exactly
// what n simulated repetitions would have shown it.
//
// Repeat stops simulating once the machine has settled: when a checked
// repetition leaves the predictor state (PHT, selector, GHR, tags and
// BTB) and the icache as it found them, every later repetition would
// make the same predictor steps, icache hits and misses and counter
// increments, and differ only in its timing draws. Repeat then adds
// n−simulated times that repetition's deltas to the context's PMCs, the
// unit's lifetime diagnostics (commits, mispredicts and the heatmap)
// and the core's telemetry counters, and advances the clock and the
// core RNG exactly as simulating the rest would have: by the
// repetition's undrawn cycles, and by replaying its timing tape (see
// timingTape) once per remaining repetition. The caller fills the
// remaining repetitions' observations with its last ones.
//
// It may settle only where a repetition is a function of the predictor
// and icache state it starts from: with no retire hook on this context,
// no PMC read fault on the core, a deterministic predictor (no §10.2
// stochastic FSM) and a checked repetition that read no clock (ReadTSC
// or Core.Clock, which telemetry spans call). Anywhere else it calls
// rep n times. The caller's side of the contract: rep runs only on this
// context and draws no randomness, and its observations depend on
// counter differences within the repetition, not on absolute counter
// values.
func (x *Context) Repeat(n int, rep func()) (simulated int) {
	c := x.core
	if x.hook != nil || c.faults.PMC != nil || !c.bpuUnit.Deterministic() {
		for i := 0; i < n; i++ {
			rep()
		}
		return n
	}
	rec := settleRecords.Get().(*settleRecord)
	defer settleRecords.Put(rec)
	for i := 1; i <= n; i++ {
		if i%settleEvery != 0 || i == n {
			rep()
			continue
		}
		if x.checkedRep(rec, rep) {
			x.advance(rec, uint64(n-i))
			return i
		}
	}
	return n
}

// checkedRep records the machine into rec, runs rep once with the
// timing tape attached and reports whether the repetition settled.
func (x *Context) checkedRep(rec *settleRecord, rep func()) bool {
	c := x.core
	c.bpuUnit.SnapshotInto(&rec.state)
	c.bpuUnit.DiagnosticsInto(&rec.diag)
	rec.pmc, rec.icache, rec.clock = x.pmc, c.icache, c.clock
	rec.tape = timingTape{ops: rec.tape.ops[:0]}
	c.tape = &rec.tape
	defer func() { c.tape = nil }()
	rep()
	return !rec.tape.clockRead && c.icache == rec.icache && c.bpuUnit.MatchesSnapshot(&rec.state)
}

// advance applies k more repetitions of the settled one recorded in
// rec.
func (x *Context) advance(rec *settleRecord, k uint64) {
	c, t := x.core, &rec.tape
	var d [numEvents]uint64
	for e := range x.pmc {
		d[e] = x.pmc[e] - rec.pmc[e]
		x.pmc[e] += k * d[e]
	}
	c.bpuUnit.RepeatDiagnostics(&rec.diag, k)
	// The core counters count this context's retired ops exactly as its
	// PMCs do; the registry may be shared with other machines, so the
	// deltas come from the PMCs and the tape, not from counter reads.
	c.ctr.instructions.Add(k * d[Instructions])
	c.ctr.branches.Add(k * d[BranchInstructions])
	c.ctr.misses.Add(k * d[BranchMisses])
	c.ctr.allocations.Add(k * d[BranchAllocations])
	c.ctr.btbMisses.Add(k * t.count(tapeBTBMiss))
	c.ctr.icacheMisses.Add(k * t.count(tapeMiss))
	x.pmcReads.Add(k * t.pmcReads)
	c.clock += k * (c.clock - rec.clock - t.drawn)
	for ; k > 0; k-- {
		c.replay(t)
	}
}
