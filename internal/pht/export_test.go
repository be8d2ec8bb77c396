package pht

import (
	"fmt"

	"branchscope/internal/fsm"
)

// Size returns the number of entries.
func (t *Table) Size() int { return len(t.entries) }

// Predict returns the predicted direction of entry idx.
func (t *Table) Predict(idx int) bool {
	return t.spec.Predict(t.entries[idx])
}

// State returns the internal FSM state of entry idx.
func (t *Table) State(idx int) uint8 { return t.entries[idx] }

// SetState forces entry idx into a specific state.
func (t *Table) SetState(idx int, state uint8) {
	if state >= t.spec.States {
		panic(fmt.Sprintf("pht: invalid state %d for %s", state, t.spec.Name))
	}
	t.entries[idx] = state
}

// Snapshot returns a copy of all entry states, for checkpoint/replay.
func (t *Table) Snapshot() []uint8 {
	return append([]uint8(nil), t.entries...)
}

// Label returns the architectural label of entry idx.
func (t *Table) Label(idx int) fsm.Label { return t.spec.Label(t.entries[idx]) }

// GshareIndex maps a branch address and global history register value to
// a PHT entry for the 2-level predictor: the folded address XORed with
// the history, modulo table size. The unit computes the same index from
// a resolved Site (see bpu.Site).
func GshareIndex(addr, ghr uint64, size int) int {
	return IndexMod(Fold(addr)^ghr, size)
}
