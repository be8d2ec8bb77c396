package cpu

import (
	"testing"

	"branchscope/internal/bpu"
	"branchscope/internal/fsm"
)

func testCore() *Core {
	cfg := bpu.Config{
		FSM:          fsm.Textbook2Bit(),
		PHTSize:      1024,
		SelectorSize: 512,
		GHRBits:      10,
		TagEntries:   256,
		BTBEntries:   256,
		Mode:         bpu.Hybrid,
	}
	return NewCore(cfg, DefaultTiming(), 42)
}

// quietCore returns a core with all stochastic timing disabled, for
// deterministic latency assertions.
func quietCore() *Core {
	cfg := bpu.Config{
		FSM:          fsm.Textbook2Bit(),
		PHTSize:      1024,
		SelectorSize: 512,
		GHRBits:      10,
		TagEntries:   256,
		BTBEntries:   256,
		Mode:         bpu.Hybrid,
	}
	tm := DefaultTiming()
	tm.JitterSigma = 0
	tm.SpikeProb = 0
	tm.ICacheMissMin = 0
	tm.ICacheMissMax = 0
	return NewCore(cfg, tm, 42)
}

func TestPMCCountsBranches(t *testing.T) {
	ctx := testCore().NewContext(1)
	for i := 0; i < 5; i++ {
		ctx.Branch(0x100, true)
	}
	if got := ctx.ReadPMC(BranchInstructions); got != 5 {
		t.Errorf("BranchInstructions = %d, want 5", got)
	}
	if got := ctx.ReadPMC(Instructions); got != 5 {
		t.Errorf("Instructions = %d, want 5", got)
	}
}

func TestPMCCountsMispredictions(t *testing.T) {
	ctx := quietCore().NewContext(1)
	// Train the branch taken, then surprise it.
	for i := 0; i < 4; i++ {
		ctx.Branch(0x100, true)
	}
	before := ctx.ReadPMC(BranchMisses)
	ctx.Branch(0x100, false) // must mispredict: counter is strongly taken
	if got := ctx.ReadPMC(BranchMisses) - before; got != 1 {
		t.Errorf("mispredictions = %d, want 1", got)
	}
	// The fresh-state counter predicts not-taken, so the very first
	// taken execution also counted as a miss.
	if ctx.ReadPMC(BranchMisses) < 2 {
		t.Errorf("total misses = %d, want >= 2", ctx.ReadPMC(BranchMisses))
	}
}

func TestMispredictionCostsCycles(t *testing.T) {
	core := quietCore()
	ctx := core.NewContext(1)
	// Warm up: train taken, warm icache and BTB.
	for i := 0; i < 4; i++ {
		ctx.Branch(0x100, true)
	}
	t0 := ctx.ReadTSC()
	ctx.Branch(0x100, true) // predicted correctly, BTB hit
	hit := ctx.ReadTSC() - t0
	t0 = ctx.ReadTSC()
	ctx.Branch(0x100, false) // mispredicted
	miss := ctx.ReadTSC() - t0
	if miss <= hit {
		t.Fatalf("miss latency %d not greater than hit latency %d", miss, hit)
	}
	if got := miss - hit; got != core.timing.MispredictPenalty {
		t.Errorf("penalty = %d cycles, want %d", got, core.timing.MispredictPenalty)
	}
}

func TestBTBMissCostsCycles(t *testing.T) {
	core := quietCore()
	ctx := core.NewContext(1)
	// Make the direction predictable-taken but keep the BTB cold by
	// evicting between runs.
	for i := 0; i < 4; i++ {
		ctx.Branch(0x100, true)
	}
	// BTB now holds 0x100. A taken branch aliasing it evicts the entry.
	evict := uint64(0x100 + 256) // BTBEntries = 256
	ctx.Branch(evict, true)
	ctx.Branch(evict, true) // train alias so it no longer mispredicts

	t0 := ctx.ReadTSC()
	ctx.Branch(0x100, true) // direction correct (ST), BTB miss
	cold := ctx.ReadTSC() - t0
	t0 = ctx.ReadTSC()
	ctx.Branch(0x100, true) // direction correct, BTB hit now
	warm := ctx.ReadTSC() - t0
	if cold-warm != core.timing.BTBMissPenalty {
		t.Errorf("BTB miss extra = %d, want %d", cold-warm, core.timing.BTBMissPenalty)
	}
}

func TestICacheFirstTouchCost(t *testing.T) {
	core := testCore()
	tm := core.timing
	ctx := core.NewContext(1)
	// First execution at a fresh address must cost at least the minimum
	// cold-miss penalty more than a warm one on average. Use Nop to
	// avoid branch-prediction effects.
	t0 := core.Clock()
	ctx.Nop(0x4000)
	first := core.Clock() - t0
	t0 = core.Clock()
	ctx.Nop(0x4000)
	second := core.Clock() - t0
	if first < second+tm.ICacheMissMin {
		t.Errorf("first touch %d vs warm %d: expected cold-miss penalty >= %d",
			first, second, tm.ICacheMissMin)
	}
}

func TestICacheCrossDomainEviction(t *testing.T) {
	core := quietCoreWithICache()
	a := core.NewContext(1)
	b := core.NewContext(2)
	a.Nop(0x4000)
	t0 := core.Clock()
	a.Nop(0x4000)
	warm := core.Clock() - t0
	if warm != core.timing.BaseInstr {
		t.Fatalf("warm nop cost %d", warm)
	}
	// Same line index, different domain: evicts.
	b.Nop(0x4000)
	t0 = core.Clock()
	a.Nop(0x4000)
	after := core.Clock() - t0
	if after <= warm {
		t.Error("cross-domain access did not evict icache line")
	}
}

func quietCoreWithICache() *Core {
	c := quietCore()
	c.timing.ICacheMissMin = 30
	c.timing.ICacheMissMax = 30
	return c
}

func TestReadTSCAdvancesClock(t *testing.T) {
	core := quietCore()
	ctx := core.NewContext(1)
	t1 := ctx.ReadTSC()
	t2 := ctx.ReadTSC()
	if t2-t1 != core.timing.TSCOverhead {
		t.Errorf("TSC delta = %d, want overhead %d", t2-t1, core.timing.TSCOverhead)
	}
}

func TestWorkAdvances(t *testing.T) {
	core := quietCore()
	ctx := core.NewContext(1)
	c0 := core.Clock()
	ctx.Work(10)
	if core.Clock()-c0 != 10*core.timing.BaseInstr {
		t.Errorf("Work(10) advanced %d cycles", core.Clock()-c0)
	}
	if ctx.ReadPMC(Instructions) != 10 {
		t.Errorf("Instructions = %d", ctx.ReadPMC(Instructions))
	}
}

func TestContextsSharePMCsSeparately(t *testing.T) {
	core := testCore()
	a := core.NewContext(1)
	b := core.NewContext(2)
	a.Branch(0x10, true)
	if b.ReadPMC(BranchInstructions) != 0 {
		t.Error("PMC leaked across contexts")
	}
}

func TestContextsShareBPU(t *testing.T) {
	core := quietCore()
	a := core.NewContext(1)
	b := core.NewContext(2)
	// a trains a branch address strongly taken; b then executes a
	// branch at the same address and benefits (no mispredict) —
	// the cross-process collision BranchScope relies on.
	for i := 0; i < 4; i++ {
		a.Branch(0x100, true)
	}
	before := b.ReadPMC(BranchMisses)
	b.Branch(0x100, true)
	if got := b.ReadPMC(BranchMisses) - before; got != 0 {
		t.Errorf("context b mispredicted despite a's training (misses=%d)", got)
	}
}

func TestHookCalled(t *testing.T) {
	ctx := testCore().NewContext(1)
	var instr, branches int
	ctx.SetHook(func(isBranch bool) {
		instr++
		if isBranch {
			branches++
		}
	})
	ctx.Branch(0x10, true)
	ctx.Nop(0x20)
	ctx.Work(3)
	ctx.ReadTSC()
	if branches != 1 {
		t.Errorf("branch hooks = %d, want 1", branches)
	}
	if instr != 6 {
		t.Errorf("instruction hooks = %d, want 6", instr)
	}
}

func TestSnapshotRestoreDeterministic(t *testing.T) {
	core := testCore()
	ctx := core.NewContext(1)
	for i := 0; i < 100; i++ {
		ctx.Branch(uint64(0x100+i*2), i%2 == 0)
	}
	snap := core.Snapshot()

	run := func() []uint64 {
		var out []uint64
		c := core.NewContext(1)
		for i := 0; i < 50; i++ {
			t0 := c.ReadTSC()
			c.Branch(uint64(0x100+i*2), true)
			out = append(out, c.ReadTSC()-t0)
		}
		return out
	}
	first := run()
	core.Restore(snap)
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at step %d: %d vs %d", i, first[i], second[i])
		}
	}
}

func TestReadPMCPanicsOnBadEvent(t *testing.T) {
	ctx := testCore().NewContext(1)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	ctx.ReadPMC(Event(99))
}

func TestEventString(t *testing.T) {
	for _, e := range []Event{Instructions, BranchInstructions, BranchMisses, Event(9)} {
		if e.String() == "" {
			t.Error("empty Event string")
		}
	}
}

func TestDomainAccessors(t *testing.T) {
	core := testCore()
	ctx := core.NewContext(7)
	if ctx.domain != 7 {
		t.Errorf("domain = %d", ctx.domain)
	}
	if ctx.Core() != core {
		t.Error("Core accessor mismatch")
	}
}
