package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"branchscope/internal/bpu"
	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/experiments"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// searchOutcome is everything a block search returns or leaves
// observable: the chosen block's code, its analysis or targets, the
// error, the spy's four PMCs, the predictor state and the predictor's
// lifetime diagnostics.
type searchOutcome struct {
	Code     any
	Analysis core.BlockAnalysis
	Targets  []core.MultiTarget
	Err      string
	PMC      [4]uint64
	State    *bpu.Snapshot
	Diag     bpu.Introspection
}

// searchSpy builds a clockless machine of m and its spy. hooked
// installs a no-op retire hook, which keeps cpu.Context.Repeat from
// settling: the search then simulates every repetition.
func searchSpy(m uarch.Model, seed uint64, hooked bool) *cpu.Context {
	spy := sched.NewSystem(m.Clockless(), seed).NewProcess("spy")
	if hooked {
		spy.SetHook(func(bool) {})
	}
	return spy
}

// finish records the spy's counters and predictor after a search.
func (o *searchOutcome) finish(spy *cpu.Context, err error) {
	if err != nil {
		o.Err = err.Error()
	}
	for e := range o.PMC {
		o.PMC[e] = spy.ReadPMC(cpu.Event(e))
	}
	o.State = spy.Core().BPU().Snapshot()
	o.Diag = spy.Core().BPU().Introspect()
}

// TestSettledSearchesMatchFullSimulation: block searches on clockless
// machines, whose analyses stop simulating once their repetitions
// repeat, return and leave exactly what a fully simulated search does,
// for single-target searches over focused and Listing 1 blocks and
// for the sixteen-target search with and without ST primes.
func TestSettledSearchesMatchFullSimulation(t *testing.T) {
	searches := map[string]func(spy *cpu.Context, seed uint64) searchOutcome{
		"focused": func(spy *cpu.Context, seed uint64) (o searchOutcome) {
			cfg := core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true, Reps: 60}
			b, a, err := core.FindBlock(spy, rng.New(seed), cfg, core.StateSN, 25)
			if b != nil {
				o.Code, a.Block = b.Code(), nil
			}
			o.Analysis = a
			o.finish(spy, err)
			return o
		},
		"listing1": func(spy *cpu.Context, seed uint64) (o searchOutcome) {
			cfg := core.SearchConfig{TargetAddr: victims.SecretBranchAddr, BlockBranches: 1000, Reps: 60}
			b, a, err := core.FindBlock(spy, rng.New(seed), cfg, core.StateSN, 3)
			if b != nil {
				o.Code, a.Block = b.Code(), nil
			}
			o.Analysis = a
			o.finish(spy, err)
			return o
		},
	}
	for _, allowST := range []bool{false, true} {
		searches[fmt.Sprintf("multi/allowST=%v", allowST)] = func(spy *cpu.Context, seed uint64) (o searchOutcome) {
			ms, err := core.NewMultiSession(spy, rng.New(seed), core.MultiConfig{
				Targets: victims.CheckAddrs(), AllowST: allowST, MaxCandidates: 10,
			})
			if ms != nil {
				o.Code, o.Targets = ms.Block().Code(), ms.Targets()
			}
			o.finish(spy, err)
			return o
		}
	}
	models := []uarch.Model{uarch.Skylake(), uarch.Haswell(), uarch.SandyBridge(), experiments.Fig4Model()}
	// At seed 9 the sixteen-target search without ST primes succeeds on
	// Haswell within its budget, so the self-verification that follows
	// an accepted analysis runs on a settled machine too.
	seeds := []uint64{1, 2, 9}
	for name, search := range searches {
		found := 0
		for _, m := range models {
			for _, seed := range seeds {
				settled := search(searchSpy(m, seed, false), seed)
				full := search(searchSpy(m, seed, true), seed)
				if full.Code != nil {
					found++
				}
				if !reflect.DeepEqual(settled, full) {
					t.Errorf("%s on %s, seed %d: the settled search differs from the fully simulated one:\n"+
						"settled: block %v err %q pmc %v commits %d\n"+
						"full:    block %v err %q pmc %v commits %d",
						name, m.Name, seed, settled.Code != nil, settled.Err, settled.PMC, settled.Diag.Commits,
						full.Code != nil, full.Err, full.PMC, full.Diag.Commits)
				}
			}
		}
		if found == 0 {
			t.Errorf("%s: no search found a block, so no accepted analysis was compared", name)
		}
	}
}
