package attacks

import (
	"fmt"

	"branchscope/internal/core"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/victims"
)

// BlockStructure is the zero-structure of one decoded 8×8 block as seen
// through the decoder's skip branches: Columns[c] / Rows[r] report
// whether the corresponding AC coefficients were all zero (the shortcut
// fired). This is the image-complexity information §9.2 describes
// BranchScope recovering from libjpeg.
type BlockStructure struct {
	Columns [8]bool
	Rows    [8]bool
}

// String renders the structure as two bit rows (1 = all-zero/simple).
func (s BlockStructure) String() string {
	f := func(bs [8]bool) string {
		out := make([]byte, 8)
		for i, b := range bs {
			if b {
				out[i] = '1'
			} else {
				out[i] = '0'
			}
		}
		return string(out)
	}
	return fmt.Sprintf("cols=%s rows=%s", f(s.Columns), f(s.Rows))
}

// TrueStructure computes the ground-truth structure of a block.
func TrueStructure(b *victims.Block) BlockStructure {
	var s BlockStructure
	for i := 0; i < 8; i++ {
		s.Columns[i] = b.ColumnACZero(i)
		s.Rows[i] = b.RowACZero(i)
	}
	return s
}

// JPEGResult reports an IDCT structure-recovery run.
type JPEGResult struct {
	Recovered []BlockStructure
	// BranchErrors counts wrongly recovered skip branches out of
	// Branches (16 per block).
	BranchErrors int
	Branches     int
}

// ErrorRate returns the per-branch recovery error.
func (r JPEGResult) ErrorRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.BranchErrors) / float64(r.Branches)
}

// String implements fmt.Stringer.
func (r JPEGResult) String() string {
	return fmt.Sprintf("jpeg recovery: %d blocks, %d/%d branch errors (%.2f%%)",
		len(r.Recovered), r.BranchErrors, r.Branches, 100*r.ErrorRate())
}

// RecoverJPEGStructure spies on a decoder service processing the given
// blocks and recovers each block's zero-structure. One BranchScope
// session is prepared per check-branch address (the pre-attack block
// search is per-target); each decoded block costs 16 prime–step–probe
// episodes.
func RecoverJPEGStructure(sys *sched.System, blocks []victims.Block, seed uint64) (JPEGResult, error) {
	victim := sys.Spawn("libjpeg", victims.IDCTProcess(blocks, nil))
	defer victim.Kill()
	spy := sys.NewProcess("spy")
	r := rng.New(seed)

	newSession := func(target uint64) (*core.Session, error) {
		return core.NewSession(spy, r.Split(), core.AttackConfig{
			Search: core.SearchConfig{TargetAddr: target, Focused: true},
		})
	}
	var colSess, rowSess [8]*core.Session
	for i := 0; i < 8; i++ {
		var err error
		if colSess[i], err = newSession(victims.ColumnCheckAddr(i)); err != nil {
			return JPEGResult{}, err
		}
		if rowSess[i], err = newSession(victims.RowCheckAddr(i)); err != nil {
			return JPEGResult{}, err
		}
	}

	res := JPEGResult{}
	for bi := range blocks {
		var got BlockStructure
		for c := 0; c < 8; c++ {
			got.Columns[c] = colSess[c].SpyBit(victim, nil, nil)
		}
		for row := 0; row < 8; row++ {
			got.Rows[row] = rowSess[row].SpyBit(victim, nil, nil)
		}
		res.Recovered = append(res.Recovered, got)
		scoreBlock(&res, &got, &blocks[bi])
	}
	return res, nil
}

func scoreBlock(res *JPEGResult, got *BlockStructure, b *victims.Block) {
	want := TrueStructure(b)
	for i := 0; i < 8; i++ {
		res.Branches += 2
		if got.Columns[i] != want.Columns[i] {
			res.BranchErrors++
		}
		if got.Rows[i] != want.Rows[i] {
			res.BranchErrors++
		}
	}
}

// RecoverJPEGStructureMulti performs the same recovery with the §6.3
// multi-branch technique: one MultiSession monitors all sixteen check
// branches, so each decoded block costs a *single* prime–step–probe
// episode (one randomization-block execution leaks sixteen directions)
// instead of sixteen. allowST must be false on Skylake-FSM parts (see
// core.MultiConfig).
func RecoverJPEGStructureMulti(sys *sched.System, blocks []victims.Block, allowST bool, seed uint64) (JPEGResult, error) {
	victim := sys.Spawn("libjpeg", victims.IDCTProcess(blocks, nil))
	defer victim.Kill()
	spy := sys.NewProcess("spy")

	ms, err := core.NewMultiSession(spy, rng.New(seed), core.MultiConfig{
		Targets: victims.CheckAddrs(),
		AllowST: allowST,
	})
	if err != nil {
		return JPEGResult{}, err
	}

	res := JPEGResult{}
	for bi := range blocks {
		bits := ms.SpyBits(victim)
		var got BlockStructure
		copy(got.Columns[:], bits[:8])
		copy(got.Rows[:], bits[8:])
		res.Recovered = append(res.Recovered, got)
		scoreBlock(&res, &got, &blocks[bi])
	}
	return res, nil
}
