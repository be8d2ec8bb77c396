// Package pht implements the pattern history table: the array of
// saturating-counter FSM entries at the core of a directional branch
// predictor, together with the index functions that map a branch to an
// entry.
//
// BranchScope's central observation is that when the 1-level (bimodal)
// predictor is in use, the PHT entry is a pure function of the branch
// virtual address, so two processes that place branches at the same
// virtual address collide in the same entry. The index functions here
// implement the bimodal scheme (address modulo table size, byte
// granularity per §6.3), the address fold that the gshare scheme XORs
// with the global history (see internal/bpu), and a keyed randomized
// scheme used by the §10 mitigation study.
package pht

import (
	"branchscope/internal/fsm"
	"branchscope/internal/rng"
)

// Table is a pattern history table: Size saturating counters sharing one
// FSM spec. The zero value is not usable; construct with New.
type Table struct {
	spec    *fsm.Spec
	entries []uint8
	// plane is the spec's compiled transition plane (see fsm.Plane),
	// cached so the deterministic Update fast path is a single indexed
	// load with no method call or probability check.
	plane []uint8

	// stochastic selects the slow Update path. It is recomputed by
	// SetStochastic so the hot path pays one boolean test instead of a
	// float compare plus a nil check per retired branch.
	stochastic bool
	// updateProb, when < 1, makes counter updates stochastic: each
	// update is applied with this probability. This implements the
	// "more stochastic FSM" hardware mitigation sketched in §10.2.
	updateProb float64
	rnd        *rng.Source
}

// New returns a table of size entries, each initialized to the spec's
// fresh-entry state. It panics if size is not positive.
func New(spec *fsm.Spec, size int) *Table {
	if size <= 0 {
		panic("pht: table size must be positive")
	}
	t := &Table{spec: spec, entries: make([]uint8, size), plane: spec.Plane(), updateProb: 1}
	t.Reset()
	return t
}

// SetStochastic makes updates apply only with probability p, drawing
// randomness from rnd. Passing p >= 1 restores deterministic updates.
// The deterministic/stochastic fork is resolved here, once, not per
// update.
func (t *Table) SetStochastic(p float64, rnd *rng.Source) {
	t.updateProb = p
	t.rnd = rnd
	t.stochastic = p < 1 && rnd != nil
}

// Reset returns every entry to the fresh-entry state.
func (t *Table) Reset() {
	for i := range t.entries {
		t.entries[i] = t.spec.Init
	}
}

// Update advances entry idx by one observed outcome. The deterministic
// fast path is branch-free apart from the taken bit: a direct step
// through the compiled transition plane. Stochastic tables (§10.2
// mitigation) take the retained slow path, whose per-update randomness
// draw order is unchanged.
func (t *Table) Update(idx int, taken bool) {
	if t.stochastic {
		t.updateStochastic(idx, taken)
		return
	}
	b := uint(0)
	if taken {
		b = 1
	}
	t.entries[idx] = t.plane[uint(t.entries[idx])<<1|b]
}

func (t *Table) updateStochastic(idx int, taken bool) {
	if !t.rnd.Chance(t.updateProb) {
		return
	}
	t.entries[idx] = t.spec.Next(t.entries[idx], taken)
}

// Raw exposes the live entry array and the compiled transition plane so
// the BPU can step counters inline on its per-branch path without a
// method call per update. Callers must treat the plane as immutable and
// must not resize either slice; entry writes must go through the same
// transition discipline Update enforces. Restore copies in place, so
// the slices stay valid for the table's lifetime.
func (t *Table) Raw() (entries, plane []uint8) { return t.entries, t.plane }

// Stochastic reports whether updates currently take the stochastic slow
// path (§10.2 mitigation). Callers inlining updates via Raw must check
// this once and fall back to Update when set.
func (t *Table) Stochastic() bool { return t.stochastic }

// Restore reinstates a copy of the entry states taken earlier (see
// bpu.Unit.SnapshotInto, which copies them through Raw). It panics
// on a size mismatch.
func (t *Table) Restore(snap []uint8) {
	if len(snap) != len(t.entries) {
		panic("pht: snapshot size mismatch")
	}
	copy(t.entries, snap)
}

// Introspection is a canonical-JSON snapshot of a table's per-entry
// 2-bit counter state: the FSM name, the raw entry states (marshals as
// base64 of one byte per entry), and a count per architectural label.
// Map keys marshal name-sorted, so identical table states produce
// byte-identical JSON.
type Introspection struct {
	FSM         string         `json:"fsm"`
	Size        int            `json:"size"`
	StateCounts map[string]int `json:"state_counts"`
	Entries     []byte         `json:"entries"`
}

// Introspect captures the table's current per-entry state. The result
// is a self-contained copy, safe to hold across further updates.
func (t *Table) Introspect() Introspection {
	in := Introspection{
		FSM:         t.spec.Name,
		Size:        len(t.entries),
		StateCounts: make(map[string]int),
		Entries:     append([]byte(nil), t.entries...),
	}
	for _, s := range t.entries {
		in.StateCounts[t.spec.Label(s).String()]++
	}
	return in
}

// Fold mixes the high half of a branch address into its low bits before
// table indexing. Real front-ends hash a wide slice of the address (prior
// BTB work exploited address bits up to bit 30); a pure low-bit modulo
// would make all address bits above the table index invisible, which
// contradicts the ability of branch-predictor side channels to
// de-randomize ASLR slides (§9.2). The fold preserves every observation
// of §6.3: single-byte index granularity, and exact periodicity at the
// table size within any 64 KiB-aligned probing window (the paper's Figure
// 5 window 0x300000–0x30ffff is one such window). It is exported so the
// BPU's resolved-site cache (see internal/bpu) can hoist it out of the
// per-branch gshare index computation.
func Fold(addr uint64) uint64 {
	return addr ^ (addr >> 16)
}

// IndexMod reduces a hash to a table index. Every realistic table size
// in the model is a power of two, where the reduction is a single mask;
// the modulo fallback keeps arbitrary sizes (e.g. odd partition spans)
// producing bit-identical values to the original `%`-based indexing.
func IndexMod(x uint64, size int) int {
	if m := uint64(size) - 1; uint64(size)&m == 0 {
		return int(x & m)
	}
	return int(x % uint64(size))
}

// BimodalIndex maps a branch address to a PHT entry for the 1-level
// predictor: the folded address modulo the table size, with single-byte
// granularity as discovered in §6.3 ("the granularity of PHT's indexing
// function is a single byte").
func BimodalIndex(addr uint64, size int) int {
	return IndexMod(Fold(addr), size)
}

// KeyedIndex is the randomized-index mitigation of §10.2: the address is
// mixed with a per-security-domain key before indexing, so an attacker in
// another domain cannot construct predictable collisions. The mix is a
// 64-bit finalizer, not a cryptographic primitive; the mitigation study
// only needs collision unpredictability, not secrecy of the key.
func KeyedIndex(addr, key uint64, size int) int {
	x := addr ^ key
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return IndexMod(x, size)
}
