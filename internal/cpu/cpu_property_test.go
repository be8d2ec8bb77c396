package cpu

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"branchscope/internal/bpu"
	"branchscope/internal/fsm"
	"branchscope/internal/telemetry"
)

// Property tests over random operation sequences: the architectural
// invariants any hardware context must uphold regardless of workload.

// opSeq drives a new context through a pseudo-random instruction mix
// derived from a byte script and returns it: conditional branches (both
// forms), nops, work, runs of a plan that grows with the script, and
// rdtscp. hook, when non-nil, is installed as the retire hook.
func opSeq(core *Core, script []byte, hook Hook) *Context {
	ctx := core.NewContext(1)
	ctx.SetHook(hook)
	plan := ctx.NewPlan(0)
	for i, b := range script {
		addr := uint64(0x1000 + int(b)*33 + i)
		taken := b&8 != 0
		switch b % opKinds {
		case 0:
			ctx.Branch(addr, taken)
		case 1:
			ctx.BranchTo(addr, taken, addr+uint64(b)*64)
		case 2:
			ctx.Nop(addr)
		case 3:
			ctx.Work(uint64(b % 5))
		case 4:
			// Each Run replays every op appended so far.
			if b&16 != 0 {
				plan.Branch(addr, taken)
			} else {
				plan.Nop(addr)
			}
			plan.Run()
		case opTSC:
			ctx.ReadTSC()
		}
	}
	return ctx
}

// opKinds is the number of op kinds opSeq draws from; opTSC is the
// rdtscp kind, which a clockless core does not have.
const opKinds, opTSC = 6, 5

// propBPU is the small predictor the properties run against.
var propBPU = bpu.Config{
	FSM:          fsm.SkylakeAsym(),
	PHTSize:      512,
	SelectorSize: 128,
	GHRBits:      12,
	TagEntries:   128,
	BTBEntries:   128,
	Mode:         bpu.Hybrid,
}

func propCore(seed uint64) *Core { return NewCore(propBPU, DefaultTiming(), seed) }

// Property: the cycle clock never decreases and every retired instruction
// advances the instruction counter by exactly one (Work(n) by n).
func TestQuickClockMonotonicCountersExact(t *testing.T) {
	f := func(seed uint64, script []byte) bool {
		core := propCore(seed)
		ctx := core.NewContext(1)
		prevClock := core.Clock()
		var wantInstr uint64
		for i, b := range script {
			addr := uint64(0x1000 + int(b)*33 + i)
			switch b % 4 {
			case 0:
				ctx.Branch(addr, b&8 != 0)
				wantInstr++
			case 1:
				ctx.Nop(addr)
				wantInstr++
			case 2:
				n := uint64(b % 5)
				ctx.Work(n)
				wantInstr += n
			case 3:
				ctx.ReadTSC()
				wantInstr++
			}
			if core.Clock() < prevClock {
				return false
			}
			prevClock = core.Clock()
		}
		return ctx.ReadPMC(Instructions) == wantInstr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: misses never exceed branches, allocations never exceed
// branches, and all PMCs are monotone.
func TestQuickPMCConsistency(t *testing.T) {
	f := func(seed uint64, script []byte) bool {
		ctx := opSeq(propCore(seed), script, nil)
		branches := ctx.ReadPMC(BranchInstructions)
		misses := ctx.ReadPMC(BranchMisses)
		allocs := ctx.ReadPMC(BranchAllocations)
		return misses <= branches && allocs <= branches &&
			branches <= ctx.ReadPMC(Instructions)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: snapshot/restore is transparent — replaying the same script
// after a restore reproduces identical TSC readings.
func TestQuickSnapshotReplayIdentical(t *testing.T) {
	f := func(seed uint64, warm, script []byte) bool {
		core := propCore(seed)
		opSeq(core, warm, nil)
		snap := core.Snapshot()
		a := opSeq(core, script, nil).ReadTSC()
		core.Restore(snap)
		b := opSeq(core, script, nil).ReadTSC()
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestClocklessCoreRejectsClockReads pins the other half of the
// clockless contract (see TestQuickDeterminism): every read of the clock on a clockless core panics, naming
// the rule, so a machine wrongly built clockless fails instead of
// reporting zero cycles.
func TestClocklessCoreRejectsClockReads(t *testing.T) {
	core := NewCore(propBPU, Timing{}, 1)
	ctx := core.NewContext(1)
	reads := map[string]func(){
		"ReadTSC":      func() { ctx.ReadTSC() },
		"Clock":        func() { core.Clock() },
		"SetTelemetry": func() { core.SetTelemetry(telemetry.New(telemetry.NewRegistry(), nil)) },
	}
	for name, read := range reads {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, name+" on a clockless core") {
					t.Errorf("%s on a clockless core: recovered %q, want a panic naming the rule", name, msg)
				}
			}()
			read()
		}()
	}
	core.SetTelemetry(nil) // detaching needs no clock
}

// Property: two cores built from the same seed behave identically under
// the same script (full determinism). So do a timed and a clockless
// core, apart from the clock: fed the script without its rdtscp ops,
// with and without a retire hook, both end with equal PMCs and
// predictor state and deliver the same hook sequence.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64, script []byte) bool {
		a := opSeq(propCore(seed), script, nil)
		b := opSeq(propCore(seed), script, nil)
		if a.ReadPMC(BranchMisses) != b.ReadPMC(BranchMisses) || a.Core().Clock() != b.Core().Clock() {
			return false
		}
		var noTSC []byte
		for _, op := range script {
			if op%opKinds != opTSC {
				noTSC = append(noTSC, op)
			}
		}
		for _, hooked := range []bool{false, true} {
			var ctx [2]*Context
			var hooks [2][]bool
			for i, timing := range []Timing{DefaultTiming(), {}} {
				var hook Hook
				if hooked {
					hook = func(isBranch bool) { hooks[i] = append(hooks[i], isBranch) }
				}
				ctx[i] = opSeq(NewCore(propBPU, timing, seed), noTSC, hook)
			}
			if ctx[0].pmc != ctx[1].pmc ||
				!reflect.DeepEqual(ctx[0].Core().BPU().Snapshot(), ctx[1].Core().BPU().Snapshot()) ||
				!reflect.DeepEqual(hooks[0], hooks[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the TSC is strictly increasing across reads (rdtscp has a
// positive cost), so timing deltas are always positive.
func TestQuickTSCStrictlyIncreasing(t *testing.T) {
	f := func(seed uint64, script []byte) bool {
		core := propCore(seed)
		ctx := opSeq(core, script, nil)
		t1 := ctx.ReadTSC()
		t2 := ctx.ReadTSC()
		return t2 > t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
