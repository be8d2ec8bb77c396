// Package cpu implements the execution substrate of the simulation: a
// physical core with a cycle clock, a shared branch prediction unit, an
// instruction cache, and per-hardware-context architectural interfaces —
// branch execution, a timestamp counter (the paper's rdtscp, §8), and
// performance counters (the paper's branch-misprediction PMC, §7).
//
// Code running on a Context only sees architectural state: it executes
// instructions and reads counters. All microarchitectural state (PHT,
// selector, GHR, tags, BTB, icache) lives in the Core and is observable
// only through its timing and prediction side effects — which is exactly
// the channel BranchScope exploits.
package cpu

import (
	"fmt"
	"math"

	"branchscope/internal/bpu"
	"branchscope/internal/rng"
	"branchscope/internal/telemetry"
)

// Event identifies a hardware performance counter.
type Event int

const (
	// Instructions counts retired instructions.
	Instructions Event = iota
	// BranchInstructions counts retired conditional branches.
	BranchInstructions
	// BranchMisses counts mispredicted conditional branches.
	BranchMisses
	// BranchAllocations counts conditional branches newly allocated in
	// the predictor's seen-branch tracker (tag misses at commit) — the
	// branch-working-set churn signal used by the hardware detection
	// countermeasure of internal/detect.
	BranchAllocations
	// numEvents sizes the counter file.
	numEvents
)

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e {
	case Instructions:
		return "instructions"
	case BranchInstructions:
		return "branch-instructions"
	case BranchMisses:
		return "branch-misses"
	case BranchAllocations:
		return "branch-allocations"
	}
	return fmt.Sprintf("Event(%d)", int(e))
}

// Timing parameterizes the cycle cost model. The absolute values are
// calibrated so the TSC-observable distributions have the shape of the
// paper's Figures 7–9 (measured hit latency near 90 cycles, miss near
// 140, noisy first executions); they are not claimed to match any
// specific silicon. The zero Timing builds a clockless core (see
// NewCore).
type Timing struct {
	// BaseInstr is the cycle cost of a non-branch instruction.
	BaseInstr uint64
	// BranchBase is the cost of a correctly predicted branch as
	// observed by a TSC measurement pair around it (it folds in the
	// surrounding measurement scaffolding, as real rdtscp timings do).
	BranchBase uint64
	// MispredictPenalty is the extra cost of a direction misprediction
	// (pipeline flush and refetch).
	MispredictPenalty uint64
	// BTBMissPenalty is the extra cost of a taken branch whose target
	// missed in the BTB (front-end redirect).
	BTBMissPenalty uint64
	// TSCOverhead is the cost of one ReadTSC (rdtscp serializes).
	TSCOverhead uint64
	// JitterSigma is the standard deviation of the per-branch Gaussian
	// timing noise.
	JitterSigma float64
	// SpikeProb is the probability that an instruction's timing is
	// perturbed by an unrelated event (interrupt, SMT contention,
	// frequency wiggle); SpikeMax bounds the uniform perturbation.
	SpikeProb float64
	// SpikeMax is the maximum extra cycles added by a spike.
	SpikeMax uint64
	// ICacheMissMin and ICacheMissMax bound the uniform extra cost of a
	// first-touch (cold) instruction fetch. The wide range models the
	// unpredictable level of the memory hierarchy that services the
	// miss; it is what makes the paper's first measurement unreliable
	// (Figure 8).
	ICacheMissMin uint64
	ICacheMissMax uint64
}

// DefaultTiming returns the calibrated timing model shared by the three
// CPU models (the paper's figures do not differentiate latency by
// microarchitecture).
func DefaultTiming() Timing {
	return Timing{
		BaseInstr:         1,
		BranchBase:        88,
		MispredictPenalty: 54,
		BTBMissPenalty:    18,
		TSCOverhead:       24,
		JitterSigma:       2.5,
		SpikeProb:         0.13,
		SpikeMax:          260,
		ICacheMissMin:     28,
		ICacheMissMax:     230,
	}
}

// ICacheLines is the capacity of the per-core instruction cache model in
// 64-byte lines (32 KiB L1I).
const ICacheLines = 512

type icacheEntry struct {
	valid  bool
	domain uint64
	line   uint64
}

// Core is one simulated physical core: a cycle clock, a branch prediction
// unit shared by its hardware contexts, and an instruction cache. Cores
// are not safe for concurrent use; the scheduler serializes contexts.
//
// A clockless core has the branch prediction unit only: it predicts,
// counts and delivers retire hooks exactly like a timed core, but keeps
// no clock, so it skips the icache model and the timing draws.
type Core struct {
	bpuUnit *bpu.Unit
	timing  Timing
	clock   uint64
	icache  [ICacheLines]icacheEntry
	faults  ReadFaults
	tel     *telemetry.Set
	ctr     coreCounters

	// rnd feeds the timing draws (icache-miss latency, jitter, spikes)
	// and nothing else. It is nil on a clockless core, which makes none
	// of them.
	rnd *rng.Source

	// jit is the half-normal timing-noise sampler built once from
	// Timing.JitterSigma (Timing is fixed at construction, so it never
	// changes). spikeThr is Timing.SpikeProb quantized to a 64-bit
	// threshold: one uniform draw per branch decides the spike, no
	// float compare.
	jit      halfNormal
	spikeThr uint64
}

// ReadFaults intercepts architectural counter reads on a core. The
// fault-injection layer (internal/chaos) installs them to model PMC
// readout corruption and rdtscp latency shifts: the faults live in the
// hardware model, so attack code above experiences them exactly as it
// would on real interference-prone silicon — through garbage readings —
// without either side reaching into the other's internals. Both funcs
// may be nil; they apply to every context of the core (it is the
// machine that misbehaves, not one process).
type ReadFaults struct {
	// PMC maps a counter read's true value to the observed value.
	PMC func(e Event, v uint64) uint64
	// TSCExtra returns extra cycles charged to (and observed through)
	// a ReadTSC — a perturbed rdtscp costs real time, so the shift
	// lands on the measured latency of whatever the read brackets.
	TSCExtra func() uint64
}

// SetReadFaults installs the core's read-fault hooks; the zero value
// clears them. Snapshot/Restore deliberately does not capture hooks:
// faults are external interference, not microarchitectural state.
func (c *Core) SetReadFaults(f ReadFaults) { c.faults = f }

// coreCounters caches the core-wide metric handles. All fields are nil
// when telemetry is disabled, collapsing every update to an inlined nil
// check on the retire paths.
type coreCounters struct {
	instructions *telemetry.Counter
	branches     *telemetry.Counter
	misses       *telemetry.Counter
	allocations  *telemetry.Counter
	btbMisses    *telemetry.Counter
	icacheMisses *telemetry.Counter
}

// NewCore builds a core around a BPU configuration. A zero timing builds
// a clockless core, for machines whose code never reads the clock: its
// ReadTSC, Clock and SetTelemetry(non-nil) panic (DESIGN §3.5).
func NewCore(cfg bpu.Config, timing Timing, seed uint64) *Core {
	c := &Core{bpuUnit: bpu.New(cfg), timing: timing}
	if timing != (Timing{}) {
		c.rnd = rng.New(seed)
		c.jit = newHalfNormal(timing.JitterSigma)
		c.spikeThr = quantizeProb(timing.SpikeProb)
	}
	return c
}

// panicClockless rejects a clock read on a clockless core: a wrongly
// declared machine fails loudly instead of reading zeros.
func panicClockless(op string) {
	panic("cpu: " + op + " on a clockless core: only a core built from a nonzero Timing " +
		"keeps a cycle clock, so code that reads it (rdtscp, telemetry spans, trace.Recorder) needs a timed model")
}

// quantizeProb maps a probability to a 64-bit acceptance threshold:
// a uniform Uint64 draw below it occurs with probability p (to within
// 2^-64).
func quantizeProb(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	v := p * 18446744073709551616.0 // 2^64
	if v >= 18446744073709551615.0 {
		return ^uint64(0)
	}
	return uint64(v)
}

// halfNormal samples uint64(|N(0,σ)|) from one uniform Uint64 draw.
// tab[k] = round(2^64 · P(jitter ≤ k)), so the sample is the first
// bucket whose cumulative threshold exceeds the draw, exact to within
// 2^-64 per bucket — the distribution the polar-method sampler
// produced, at a fraction of its cost (no Log/Sqrt, no rejection
// loop).
//
// idx indexes the thresholds by the draw's top byte: idx[b] is the
// first bucket a draw in [b<<56, (b+1)<<56) can land in. A slot no
// threshold splits maps straight to its bucket; in the few that a
// threshold splits, the draw finishes the scan from there. The scan
// alone exits at an unpredictable bucket (at σ = 2.5 a draw lands in
// buckets 0–3 with probability 31%, 27%, 19%, 12%), which costs the
// host a mispredicted branch on most draws.
type halfNormal struct {
	tab []uint64
	idx [256]uint8
}

// newHalfNormal builds the sampler for σ.
func newHalfNormal(sigma float64) halfNormal {
	h := halfNormal{tab: buildJitterTab(sigma)}
	h.index()
	return h
}

// index builds idx in one pass over the thresholds: idx[b] is the
// first k with tab[k] > b<<56, or the last bucket. An entry names at
// most bucket 255; a slot whose first candidate lies past it (σ near
// 90 and up) starts the scan at 255, which stays exact.
func (h *halfNormal) index() {
	last := len(h.tab) - 1
	k := 0
	for b := range h.idx {
		lo := uint64(b) << 56
		for k < last && h.tab[k] <= lo {
			k++
		}
		h.idx[b] = uint8(min(k, 255))
	}
}

// bucket maps a uniform draw u to its sample: the first k with
// u < tab[k], or the last bucket. Every bucket below idx[u>>56] has a
// threshold at or below u, so starting the scan there is exact.
func (h *halfNormal) bucket(u uint64) uint64 {
	j := uint64(h.idx[u>>56])
	last := uint64(len(h.tab) - 1)
	for j < last && u >= h.tab[j] {
		j++
	}
	return j
}

// buildJitterTab quantizes the half-normal |N(0,σ)| to cumulative
// 64-bit thresholds: P(floor(|N|) ≤ k) = erf((k+1) / (σ√2)). The table
// ends with a saturated ^uint64(0) bucket, so a lookup always lands.
func buildJitterTab(sigma float64) []uint64 {
	if sigma <= 0 {
		return []uint64{^uint64(0)}
	}
	denom := sigma * math.Sqrt2
	var tab []uint64
	for k := 0; ; k++ {
		p := math.Erf(float64(k+1) / denom)
		v := p * 18446744073709551616.0 // 2^64
		if v >= 18446744073709551615.0 {
			tab = append(tab, ^uint64(0))
			return tab
		}
		tab = append(tab, uint64(v))
	}
}

// SetTelemetry attaches a telemetry set to the core (nil detaches).
// Call it before creating contexts: a context captures its per-context
// instrument handles at creation time. Disabled telemetry costs one
// inlined nil check per retired operation, keeping hot paths intact.
// Telemetry spans read the clock, so a non-nil set on a clockless core
// panics.
func (c *Core) SetTelemetry(t *telemetry.Set) {
	if t != nil && c.rnd == nil {
		panicClockless("SetTelemetry")
	}
	c.tel = t
	c.ctr = coreCounters{
		instructions: t.Counter("cpu.instructions"),
		branches:     t.Counter("cpu.branches"),
		misses:       t.Counter("cpu.branch_misses"),
		allocations:  t.Counter("cpu.branch_allocations"),
		btbMisses:    t.Counter("cpu.btb_misses"),
		icacheMisses: t.Counter("cpu.icache_misses"),
	}
}

// Telemetry returns the attached telemetry set (nil when disabled).
// Layers above the CPU (scheduler, attack sessions) pick their sink up
// from here so one SetTelemetry call instruments the whole machine.
func (c *Core) Telemetry() *telemetry.Set { return c.tel }

// BPU exposes the core's branch prediction unit for white-box tests and
// mitigation configuration (MarkSensitive). Attack code must not use it.
func (c *Core) BPU() *bpu.Unit { return c.bpuUnit }

// Clock returns the current cycle count. It panics on a clockless core.
func (c *Core) Clock() uint64 {
	if c.rnd == nil {
		panicClockless("Clock")
	}
	return c.clock
}

// icacheAccess models one instruction fetch: returns the extra cycles
// charged (zero on a hit).
func (c *Core) icacheAccess(domain, addr uint64) uint64 {
	extra, miss := c.icacheTouch(domain, addr)
	if miss {
		c.ctr.icacheMisses.Inc()
	}
	return extra
}

// icacheTouch is icacheAccess without the telemetry increment, so the
// batched executor can count misses locally and flush one Add per run.
func (c *Core) icacheTouch(domain, addr uint64) (extra uint64, miss bool) {
	line := addr >> 6
	e := &c.icache[line%ICacheLines]
	if e.valid && e.domain == domain && e.line == line {
		return 0, false
	}
	*e = icacheEntry{valid: true, domain: domain, line: line}
	span := c.timing.ICacheMissMax - c.timing.ICacheMissMin
	if span == 0 {
		return c.timing.ICacheMissMin, true
	}
	return c.timing.ICacheMissMin + c.rnd.Uint64n(span+1), true
}

// jitter draws the ambient timing noise for one instruction: one
// uniform draw for the half-normal sample, one for the spike decision,
// and one more for the spike's size when it fires.
func (c *Core) jitter() uint64 {
	j := c.jit.bucket(c.rnd.Uint64())
	if c.rnd.Uint64() < c.spikeThr {
		j += c.rnd.Uint64n(c.timing.SpikeMax + 1)
	}
	return j
}

// Snapshot captures the full microarchitectural state of the core for the
// checkpoint/replay harness (deterministic re-execution memoization).
type Snapshot struct {
	bpu    *bpu.Snapshot
	clock  uint64
	icache [ICacheLines]icacheEntry
	rnd    rng.Source
}

// Snapshot returns a deep copy of core state.
func (c *Core) Snapshot() *Snapshot {
	s := &Snapshot{bpu: c.bpuUnit.Snapshot(), clock: c.clock, icache: c.icache}
	if c.rnd != nil {
		s.rnd = *c.rnd
	}
	return s
}

// Restore reinstates a snapshot taken from this core.
func (c *Core) Restore(s *Snapshot) {
	c.bpuUnit.Restore(s.bpu)
	c.clock = s.clock
	c.icache = s.icache
	if c.rnd != nil {
		*c.rnd = s.rnd
	}
}

// Hook observes retired operations on a context; the scheduler uses it to
// enforce instruction and branch quanta. It may block (that is how a
// context is descheduled).
type Hook func(isBranch bool)

// Context is one hardware thread of a core: the architectural interface
// programs execute against. Two contexts of the same core share its BPU,
// icache and clock (SMT), but have private performance counters.
type Context struct {
	core   *Core
	domain uint64
	pmc    [numEvents]uint64
	hook   Hook
	settle *settleRecord // Repeat's record, allocated on first use

	// tid is the trace thread id (0 when telemetry is disabled);
	// tscReads/pmcReads are the per-context counter-read metrics.
	tid      int
	tscReads *telemetry.Counter
	pmcReads *telemetry.Counter
}

// NewContext creates a hardware context on the core for the given
// security domain (process). Domains separate icache lines and are the
// key for the per-domain BPU mitigations; co-resident attacker and victim
// processes have different domains yet share the BPU — the paper's threat
// model.
func (c *Core) NewContext(domain uint64) *Context {
	x := &Context{core: c, domain: domain}
	if c.tel != nil {
		x.tid = c.tel.NewThreadID()
		x.tscReads = c.tel.Counter(fmt.Sprintf("cpu.ctx%d.tsc_reads", x.tid))
		x.pmcReads = c.tel.Counter(fmt.Sprintf("cpu.ctx%d.pmc_reads", x.tid))
	}
	return x
}

// TID returns the context's trace thread identifier (0 when the core
// had no telemetry attached at context creation). Spans emitted for
// work on this context use it as their Chrome-trace tid.
func (x *Context) TID() int { return x.tid }

// Core returns the core this context belongs to.
func (x *Context) Core() *Core { return x.core }

// SetHook installs the scheduler callback invoked after every retired
// operation.
func (x *Context) SetHook(h Hook) { x.hook = h }

// Hook returns the currently installed retire hook (nil if none). Tools
// that observe execution (internal/trace) use it to compose with the
// scheduler's hook rather than replace it.
func (x *Context) Hook() Hook { return x.hook }

func (x *Context) retire(isBranch bool) {
	if x.hook != nil {
		x.hook(isBranch)
	}
}

// Branch executes one conditional branch instruction at addr with the
// given actual direction. The fall-through target convention is
// addr+targetStride for taken branches; use BranchTo when the target
// matters (BTB experiments).
func (x *Context) Branch(addr uint64, taken bool) {
	x.BranchTo(addr, taken, addr+16)
}

// BranchTo executes one conditional branch with an explicit taken-target.
func (x *Context) BranchTo(addr uint64, taken bool, target uint64) {
	s := x.core.bpuUnit.Resolve(x.domain, addr)
	x.branchSite(&s, taken, target)
}

// branchSite executes one branch through a previously resolved site: the
// shared serial execution path behind BranchTo, ResolvedBranch and the
// hooked ExecPlan fallback. A clockless core skips the cost model.
func (x *Context) branchSite(s *bpu.Site, taken bool, target uint64) {
	c := x.core
	timed := c.rnd != nil
	var cost uint64
	if timed {
		cost = c.timing.BranchBase + c.icacheAccess(x.domain, s.Addr())
	}
	predicted, btbHit, allocated := c.bpuUnit.Exec(s, taken, target)
	if predicted != taken {
		cost += c.timing.MispredictPenalty
		x.pmc[BranchMisses]++
		c.ctr.misses.Inc()
	}
	if taken && !btbHit {
		cost += c.timing.BTBMissPenalty
		c.ctr.btbMisses.Inc()
	}
	if allocated {
		x.pmc[BranchAllocations]++
		c.ctr.allocations.Inc()
	}
	if timed {
		c.clock += cost + c.jitter()
	}
	x.pmc[Instructions]++
	x.pmc[BranchInstructions]++
	c.ctr.instructions.Inc()
	c.ctr.branches.Inc()
	x.retire(true)
}

// ResolvedBranch caches the BPU site resolution for one (context,
// address) pair so loops that re-execute the same branch — prime
// bursts, probe pairs, calibration training — skip the per-call index
// computations. The zero value is not usable; obtain one from
// ResolveBranch and keep it by value (no heap allocation).
type ResolvedBranch struct {
	x      *Context
	site   bpu.Site
	target uint64
}

// ResolveBranch resolves the branch at addr for this context, with the
// default fall-through target convention of Branch (addr+16).
func (x *Context) ResolveBranch(addr uint64) ResolvedBranch {
	return ResolvedBranch{
		x:      x,
		site:   x.core.bpuUnit.Resolve(x.domain, addr),
		target: addr + 16,
	}
}

// Execute runs the resolved branch once with the given direction; it is
// observationally identical to Context.Branch at the same address.
func (rb *ResolvedBranch) Execute(taken bool) {
	rb.x.branchSite(&rb.site, taken, rb.target)
}

// BranchRepeat executes n consecutive branches at addr with the same
// direction — the prime-burst shape of the attack loops — resolving the
// site once.
func (x *Context) BranchRepeat(addr uint64, taken bool, n int) {
	rb := x.ResolveBranch(addr)
	for i := 0; i < n; i++ {
		rb.Execute(taken)
	}
}

// Nop executes one non-branch instruction at addr (the address matters:
// it occupies icache space and, in attacker blocks, shifts subsequent
// branch addresses — the Listing 1 randomization trick).
func (x *Context) Nop(addr uint64) {
	c := x.core
	if c.rnd != nil {
		c.clock += c.timing.BaseInstr + c.icacheAccess(x.domain, addr)
	}
	x.pmc[Instructions]++
	c.ctr.instructions.Inc()
	x.retire(false)
}

// Work executes n generic non-branch instructions that are not
// cache-modelled (arithmetic on warm code); it advances time and the
// instruction counter.
func (x *Context) Work(n uint64) {
	c := x.core
	timed := c.rnd != nil
	c.ctr.instructions.Add(n)
	for i := uint64(0); i < n; i++ {
		if timed {
			c.clock += c.timing.BaseInstr
		}
		x.pmc[Instructions]++
		x.retire(false)
	}
}

// ReadTSC reads the timestamp counter (rdtscp): it returns the core cycle
// clock and charges the serialization overhead. It panics on a clockless
// core.
func (x *Context) ReadTSC() uint64 {
	c := x.core
	if c.rnd == nil {
		panicClockless("ReadTSC")
	}
	c.clock += c.timing.TSCOverhead
	if f := c.faults.TSCExtra; f != nil {
		c.clock += f()
	}
	x.pmc[Instructions]++
	c.ctr.instructions.Inc()
	x.tscReads.Inc()
	t := c.clock
	x.retire(false)
	return t
}

// ReadPMC reads a performance counter of this context. Counter reads are
// architecturally free in the model (the paper's attacker reads PMCs via
// the perf subsystem outside the timed region).
func (x *Context) ReadPMC(e Event) uint64 {
	if e < 0 || e >= numEvents {
		panic(fmt.Sprintf("cpu: invalid PMC event %d", int(e)))
	}
	x.pmcReads.Inc()
	v := x.pmc[e]
	if f := x.core.faults.PMC; f != nil {
		v = f(e, v)
	}
	return v
}
