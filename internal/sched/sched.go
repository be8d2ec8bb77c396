// Package sched provides the operating-system substrate of the
// simulation: processes scheduled onto the hardware contexts of a
// simulated core, with attacker-relevant control over interleaving.
//
// The paper's threat model (§3) requires (a) attacker/victim co-residency
// on one physical core, (b) the ability to slow the victim down so it
// executes a single branch between the attacker's prime and probe stages
// (via scheduler exploitation in user space, or trivially via a malicious
// OS for SGX), and (c) the attacker triggering victim executions. The
// Thread abstraction realizes exactly these capabilities: a victim runs
// as a cooperative coroutine that the attacker steps by instruction or
// branch quanta, while the attacker's own code runs directly on its
// context.
//
// Control passes between the scheduler and a thread by strict handoff:
// at any moment either the scheduler or exactly one thread is running,
// so the simulated core's state needs no locking and execution is fully
// deterministic. The contract that keeps this true is that one goroutine
// drives a System's threads at a time: Step, StepBranches, Kill and
// Finished are not safe to call concurrently. A panic in a thread's
// function is re-raised on the goroutine that resumed it.
package sched

import (
	"fmt"

	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/telemetry"
	"branchscope/internal/uarch"
)

// System is a simulated machine with one physical core and a process
// registry. It hands out hardware contexts with distinct security
// domains.
type System struct {
	core       *cpu.Core
	nextDomain uint64
	tel        *telemetry.Set
	ctr        sysCounters
}

// sysCounters caches the scheduler's metric handles (all nil when
// telemetry is disabled).
type sysCounters struct {
	processes *telemetry.Counter
	spawns    *telemetry.Counter
	steps     *telemetry.Counter
	switches  *telemetry.Counter
	kills     *telemetry.Counter
}

// NewSystem boots a machine of the given model. All randomness in the
// machine derives from seed.
func NewSystem(model uarch.Model, seed uint64) *System {
	return &System{
		core: model.NewCore(rng.New(seed).Uint64()),
		// Domain 0 is reserved for the kernel; processes start at 1.
		nextDomain: 1,
	}
}

// SetTelemetry attaches a telemetry set to the machine: the core's
// retire paths, the scheduler's bookkeeping and every layer above
// (attack sessions, SGX) pick it up from here. Call it right after
// NewSystem, before any process exists — contexts and threads capture
// their handles at creation time.
func (s *System) SetTelemetry(t *telemetry.Set) {
	s.tel = t
	s.core.SetTelemetry(t)
	s.ctr = sysCounters{
		processes: t.Counter("sched.processes"),
		spawns:    t.Counter("sched.spawns"),
		steps:     t.Counter("sched.steps"),
		switches:  t.Counter("sched.context_switches"),
		kills:     t.Counter("sched.kills"),
	}
}

// Telemetry returns the machine's telemetry set (nil when disabled).
func (s *System) Telemetry() *telemetry.Set { return s.tel }

// Core returns the machine's physical core.
func (s *System) Core() *cpu.Core { return s.core }

// NewProcess allocates a hardware context for a new process. The caller's
// goroutine runs the process directly; use Spawn for a steppable
// coroutine process instead.
func (s *System) NewProcess(name string) *cpu.Context {
	d := s.nextDomain
	s.nextDomain++
	ctx := s.core.NewContext(d)
	s.ctr.processes.Inc()
	s.tel.NameThread(ctx.TID(), name)
	return ctx
}

// grant is one scheduling quantum: budgets in retired instructions and
// retired branches. A negative budget is unlimited.
type grant struct {
	instr    int64
	branches int64
}

// killed is the sentinel panic value used to unwind a killed thread.
type killed struct{}

// Thread is a process running as a cooperative coroutine. It executes
// only while the scheduler has granted it a quantum; it pauses itself in
// its instruction-retire hook.
type Thread struct {
	Name string

	ctx *cpu.Context
	co  coro

	// budget is the quantum being spent: step writes it before resuming
	// the thread, and onRetire spends it while the thread runs.
	budget grant

	// tel and the counters are captured from the System at spawn time
	// (nil when telemetry is disabled).
	tel      *telemetry.Set
	steps    *telemetry.Counter
	switches *telemetry.Counter
	kills    *telemetry.Counter
}

// Spawn creates a process executing fn on a fresh context and returns its
// scheduling handle. fn starts suspended; nothing executes until the
// first Step call.
func (s *System) Spawn(name string, fn func(*cpu.Context)) *Thread {
	t := &Thread{
		Name:     name,
		ctx:      s.NewProcess(name),
		tel:      s.tel,
		steps:    s.ctr.steps,
		switches: s.ctr.switches,
		kills:    s.ctr.kills,
	}
	s.ctr.spawns.Inc()
	t.ctx.SetHook(t.onRetire)
	t.co.start(func() { fn(t.ctx) })
	return t
}

// onRetire is the context hook: it spends budget and parks the thread
// when the quantum is exhausted.
func (t *Thread) onRetire(isBranch bool) {
	if t.budget.instr > 0 {
		t.budget.instr--
	}
	if isBranch && t.budget.branches > 0 {
		t.budget.branches--
	}
	if t.budget.instr == 0 || t.budget.branches == 0 {
		t.co.pause()
	}
}

// step grants a quantum and blocks until the thread pauses or finishes.
// It reports whether the thread is still alive. With telemetry attached
// it counts the dispatch (a context switch in and back out) and emits
// one "quantum" span per grant on the thread's trace timeline, covering
// the cycles the thread actually ran.
func (t *Thread) step(g grant) bool {
	var start uint64
	if t.tel != nil {
		t.steps.Inc()
		t.switches.Add(2)
		start = t.ctx.Core().Clock()
	}
	t.budget = g
	alive := t.co.resume()
	if t.tel != nil {
		if end := t.ctx.Core().Clock(); end > start {
			t.tel.Span(t.ctx.TID(), "sched", "quantum", start, end, nil)
		}
	}
	return alive
}

// Step runs the thread for exactly n retired instructions (of any kind).
// It reports whether the thread is still runnable afterwards. n <= 0 is a
// no-op that reports liveness.
func (t *Thread) Step(n int) bool {
	if n <= 0 {
		return !t.Finished()
	}
	return t.step(grant{instr: int64(n), branches: -1})
}

// StepBranches runs the thread until k more conditional branches have
// retired, pausing immediately after the k-th. This is the victim
// slowdown primitive: StepBranches(1) is "let the victim execute a single
// branch during the context switch" (§7). It reports whether the thread
// is still runnable.
func (t *Thread) StepBranches(k int) bool {
	if k <= 0 {
		return !t.Finished()
	}
	return t.step(grant{instr: -1, branches: int64(k)})
}

// Kill terminates a suspended thread: the process function unwinds from
// its pause point, running its deferred calls, and never continues.
// Killing a finished thread is a no-op. This models the OS reclaiming a
// process (noise generators run forever and must be reaped at the end
// of an experiment).
func (t *Thread) Kill() {
	if t.co.kill() {
		t.kills.Inc()
	}
}

// Finished reports whether the thread's function has returned, been
// killed or panicked.
func (t *Thread) Finished() bool { return t.co.finished() }

// Context exposes the thread's hardware context; useful for reading its
// performance counters after it finishes.
func (t *Thread) Context() *cpu.Context { return t.ctx }

// String implements fmt.Stringer.
func (t *Thread) String() string {
	state := "runnable"
	if t.Finished() {
		state = "finished"
	}
	return fmt.Sprintf("thread %q (%s)", t.Name, state)
}
