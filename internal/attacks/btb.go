package attacks

import (
	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/stats"
)

// BTB eviction attack — the prior-work baseline (§11, attack style of
// Acıiçmez et al. and Lee et al.): the spy installs its own taken branch
// in the BTB set shared with the victim's branch, lets the victim run,
// and re-times its branch. A taken victim branch inserts its target into
// the BTB, evicting the spy's entry; the spy's next execution then pays
// the front-end redirect cost of a BTB miss. A not-taken victim branch
// leaves the BTB alone (targets are stored only for taken branches).
//
// Comparing this baseline with BranchScope shows (a) the directional
// channel is far cleaner — the BTB signal is a small timing delta buried
// in noise — and (b) BTB defenses (modelled as a BTB flush on every
// context switch) kill the baseline while leaving BranchScope untouched.

// BTBSpy attacks one victim branch address through BTB evictions.
type BTBSpy struct {
	spy       *cpu.Context
	aliasAddr uint64
	threshold uint64
	// FlushDefense simulates the BTB-flush-on-context-switch defense:
	// the kernel flushes the BTB before every spy probe.
	FlushDefense bool
}

// NewBTBSpy prepares a BTB spy against victimAddr: it derives a colliding
// spy-branch address (same BTB set, different tag) and calibrates the
// hit/miss timing threshold on its own branches.
func NewBTBSpy(spy *cpu.Context, victimAddr uint64, btbSets int, calibrationReps int) *BTBSpy {
	if calibrationReps <= 0 {
		calibrationReps = 2000
	}
	b := &BTBSpy{
		spy:       spy,
		aliasAddr: victimAddr + uint64(btbSets),
	}
	// Calibrate: measure the spy branch warm with a BTB hit versus
	// after a self-inflicted eviction (a second alias one set-stride
	// further evicts the first).
	evictor := victimAddr + 2*uint64(btbSets)
	hits := make([]uint64, 0, calibrationReps)
	misses := make([]uint64, 0, calibrationReps)
	for i := 0; i < calibrationReps; i++ {
		b.train()
		t0 := spy.ReadTSC()
		spy.Branch(b.aliasAddr, true)
		hits = append(hits, spy.ReadTSC()-t0)

		b.train()
		spy.Branch(evictor, true) // evict the BTB entry
		spy.Branch(evictor, true) // train evictor's direction for next rounds
		t0 = spy.ReadTSC()
		spy.Branch(b.aliasAddr, true)
		misses = append(misses, spy.ReadTSC()-t0)
	}
	// The medians, not the means: the 18-cycle BTB-miss signal is small
	// enough that spike noise would otherwise push the threshold past
	// the typical miss latency.
	b.threshold = uint64((stats.MedianUint64(hits) + stats.MedianUint64(misses)) / 2)
	return b
}

// train installs the spy branch: direction strongly taken and BTB entry
// present.
func (b *BTBSpy) train() {
	for i := 0; i < 4; i++ {
		b.spy.Branch(b.aliasAddr, true)
	}
}

// SpyBit runs one BTB attack episode: train, let the victim execute one
// branch, re-time the spy branch. It returns true when it infers the
// victim's branch was taken (spy entry evicted).
func (b *BTBSpy) SpyBit(victim core.Stepper) bool {
	b.train()
	victim.StepBranches(1)
	if b.FlushDefense {
		b.spy.Core().BPU().FlushBTB()
	}
	t0 := b.spy.ReadTSC()
	b.spy.Branch(b.aliasAddr, true)
	lat := b.spy.ReadTSC() - t0
	return lat > b.threshold
}
