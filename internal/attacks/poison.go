package attacks

import (
	"fmt"

	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/rng"
)

// Branch poisoning (§1): beyond reading predictor state, an attacker that
// can create PHT collisions can *write* it — priming a victim branch's
// entry against the victim's actual direction so the victim mispredicts
// on its next execution. This is the directional-predictor analogue of
// the branch-poisoning step of Spectre variant 1/2 exploitation, which
// the paper identifies as sharing BranchScope's collision primitive
// ("the attacker may also change the predictor state, changing its
// behavior in the victim").
//
// A Poisoner holds two pre-searched randomization blocks per target, one
// leaving the entry strongly taken, one strongly not-taken; Poison then
// forces the victim's next prediction in either direction on demand.

// Poisoner forces the predicted direction of a victim branch.
type Poisoner struct {
	spy     *cpu.Context
	toTaken *core.Block // leaves the entry in ST
	toNot   *core.Block // leaves the entry in SN
}

// NewPoisoner performs the pre-attack searches for both directions.
func NewPoisoner(spy *cpu.Context, r *rng.Source, target uint64) (*Poisoner, error) {
	cfg := core.SearchConfig{TargetAddr: target, Focused: true}
	toNot, _, err := core.FindBlock(spy, r, cfg, core.StateSN, 300)
	if err != nil {
		return nil, fmt.Errorf("attacks: poisoner SN search: %w", err)
	}
	toTaken, _, err := core.FindBlock(spy, r, cfg, core.StateST, 300)
	if err != nil {
		return nil, fmt.Errorf("attacks: poisoner ST search: %w", err)
	}
	return &Poisoner{spy: spy, toTaken: toTaken, toNot: toNot}, nil
}

// Poison primes the target entry so the victim's next execution is
// predicted in the given direction (and, because the priming evicts the
// victim's seen-branch tag, the 1-level prediction is guaranteed to be
// the one used).
func (p *Poisoner) Poison(predictTaken bool) {
	if predictTaken {
		p.toTaken.Run(p.spy)
	} else {
		p.toNot.Run(p.spy)
	}
}
