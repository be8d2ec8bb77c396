// Package sgx models the Intel SGX isolated-execution environment the
// paper attacks in §9: an enclave whose memory is inaccessible to the
// rest of the system — including the OS — but whose execution shares the
// physical core's branch prediction unit with untrusted code.
//
// The SGX threat model hands the attacker the operating system. For
// BranchScope that buys two things (§9.2):
//
//   - precise scheduling: the malicious OS can configure the APIC timer
//     to interrupt the enclave after a handful of instructions, or unmap
//     pages to fault at a chosen point, so the victim can be stepped one
//     branch at a time without the user-space slowdown tricks;
//   - a quiet machine: the OS prevents other processes from running,
//     suppressing noise.
//
// An Enclave wraps a scheduled thread. Memory isolation holds by
// construction — the enclave's state lives in its process function's
// closure, and nothing in this repository reaches into another process's
// memory — while the BPU remains shared, which is the entire attack
// surface. Each interrupt charges an asynchronous-exit (AEX) plus
// ERESUME cost to the core clock via a kernel context, modelling the
// world-switch overhead.
package sgx

import (
	"branchscope/internal/cpu"
	"branchscope/internal/sched"
	"branchscope/internal/telemetry"
)

// AEXCycles approximates the cost of one asynchronous enclave exit plus
// ERESUME round trip, charged to the core for every attacker-forced
// interrupt.
const AEXCycles = 7000

// Enclave is a victim process running inside an SGX enclave, stepped by
// the attacker-controlled OS.
type Enclave struct {
	thread *sched.Thread
	kernel *cpu.Context

	// Telemetry handles, captured from the system at launch (nil when
	// disabled).
	tel         *telemetry.Set
	entries     *telemetry.Counter
	exits       *telemetry.Counter
	singleSteps *telemetry.Counter
	// instrSteps counts page-fault steps. The attacks step enclaves by
	// branch only; the counter stays registered so metrics exports keep
	// their shape.
	instrSteps *telemetry.Counter
}

// Launch creates an enclave running fn on the system. The returned
// enclave starts suspended; the (attacker-controlled) OS resumes it via
// the stepping methods.
func Launch(sys *sched.System, name string, fn func(*cpu.Context)) *Enclave {
	e := &Enclave{
		thread: sys.Spawn("enclave:"+name, fn),
		kernel: sys.Core().NewContext(0), // domain 0: the kernel
		tel:    sys.Telemetry(),
	}
	e.tel.Counter("sgx.enclaves").Inc()
	e.tel.NameThread(e.kernel.TID(), "kernel(sgx)")
	e.entries = e.tel.Counter("sgx.enclave_entries")
	e.exits = e.tel.Counter("sgx.enclave_exits")
	e.singleSteps = e.tel.Counter("sgx.single_steps")
	e.instrSteps = e.tel.Counter("sgx.instruction_steps")
	return e
}

// aex charges the world-switch overhead of one forced interrupt and, with
// telemetry attached, records the exit and an "aex+eresume" span on the
// kernel's trace timeline.
func (e *Enclave) aex() {
	var start uint64
	if e.tel != nil {
		start = e.kernel.Core().Clock()
	}
	e.kernel.Work(AEXCycles)
	if e.tel != nil {
		e.exits.Inc()
		e.tel.Span(e.kernel.TID(), "sgx", "aex+eresume", start, e.kernel.Core().Clock(), nil)
	}
}

// StepBranches resumes the enclave until k conditional branches have
// retired, then interrupts it (APIC-timer single-stepping, §9.2). It
// reports whether the enclave is still running. It implements
// core.Stepper, so an Enclave can be attacked exactly like a regular
// process — which is the point of §9.
func (e *Enclave) StepBranches(k int) bool {
	e.entries.Inc()
	e.singleSteps.Inc()
	alive := e.thread.StepBranches(k)
	e.aex()
	return alive
}

// Destroy tears the enclave down (EREMOVE).
func (e *Enclave) Destroy() { e.thread.Kill() }
