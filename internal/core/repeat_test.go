package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"branchscope/internal/bpu"
	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/experiments"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/telemetry"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// searchOutcome is everything a block search returns or leaves
// observable: the chosen block's code, its analysis or targets, the
// error, the spy's four PMCs, the predictor state and the predictor's
// lifetime diagnostics; on a timed machine also the clock, the whole
// core state (predictor, clock, icache and core RNG) and the attached
// telemetry's metrics and trace.
type searchOutcome struct {
	Code     any
	Analysis core.BlockAnalysis
	Targets  []core.MultiTarget
	Err      string
	PMC      [4]uint64
	State    *bpu.Snapshot
	Diag     bpu.Introspection
	Clock    uint64
	Core     *cpu.Snapshot
	Metrics  string
	Trace    string
}

// chosenBlock is the block a search chose and the targets it probes.
type chosenBlock struct {
	block  *core.Block
	probes []uint64
}

// settles reports whether the block's analysis repetition — run the
// block, probe each target — settles on spy.
func (c chosenBlock) settles(spy *cpu.Context) bool {
	const reps = 60
	return spy.Repeat(reps, func() {
		c.block.Run(spy)
		for _, addr := range c.probes {
			core.ProbePMC(spy, addr, true)
		}
	}) < reps
}

// searchMachine is a machine kind the searches run on.
type searchMachine struct {
	model uarch.Model
	timed bool
	tel   bool
}

func (m searchMachine) String() string {
	switch {
	case !m.timed:
		return m.model.Name + " (clockless)"
	case m.tel:
		return m.model.Name + " (timed, telemetry)"
	}
	return m.model.Name + " (timed)"
}

// spy builds a machine of this kind and its spy. hooked installs a
// no-op retire hook, which keeps cpu.Context.Repeat from settling: the
// search then simulates every repetition.
func (m searchMachine) spy(seed uint64, hooked bool) *cpu.Context {
	model := m.model
	if !m.timed {
		model = model.Clockless()
	}
	sys := sched.NewSystem(model, seed)
	if m.tel {
		sys.SetTelemetry(telemetry.New(telemetry.NewRegistry(), telemetry.NewTracer()))
	}
	spy := sys.NewProcess("spy")
	if hooked {
		spy.SetHook(func(bool) {})
	}
	return spy
}

// finish records the spy's counters, predictor, core state and
// telemetry after a search.
func (o *searchOutcome) finish(spy *cpu.Context, err error) {
	if err != nil {
		o.Err = err.Error()
	}
	for e := range o.PMC {
		o.PMC[e] = spy.ReadPMC(cpu.Event(e))
	}
	c := spy.Core()
	o.State = c.BPU().Snapshot()
	o.Diag = c.BPU().Introspect()
	o.Core = c.Snapshot()
	if tel := c.Telemetry(); tel != nil {
		var m, tr bytes.Buffer
		if err := tel.Metrics.Snapshot().WriteJSON(&m); err != nil {
			panic(err)
		}
		if err := tel.Trace.WriteJSON(&tr); err != nil {
			panic(err)
		}
		o.Metrics, o.Trace = m.String(), tr.String()
	}
}

// TestSettledSearchesMatchFullSimulation: block searches whose analyses
// stop simulating once their repetitions repeat, on clockless machines
// and on timed ones with and without telemetry, return and leave
// exactly what a fully simulated search does, for single-target
// searches over focused and Listing 1 blocks and for the sixteen-target
// search with and without ST primes. On timed machines with and
// without telemetry, the analysis repetitions of the chosen blocks
// settle.
func TestSettledSearchesMatchFullSimulation(t *testing.T) {
	searches := map[string]func(spy *cpu.Context, seed uint64) (searchOutcome, chosenBlock){
		"focused": func(spy *cpu.Context, seed uint64) (o searchOutcome, c chosenBlock) {
			cfg := core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true, Reps: 60}
			b, a, err := core.FindBlock(spy, rng.New(seed), cfg, core.StateSN, 25)
			if b != nil {
				o.Code, a.Block = b.Code(), nil
				c = chosenBlock{b, []uint64{cfg.TargetAddr}}
			}
			o.Analysis = a
			o.finish(spy, err)
			return o, c
		},
		"listing1": func(spy *cpu.Context, seed uint64) (o searchOutcome, c chosenBlock) {
			cfg := core.SearchConfig{TargetAddr: victims.SecretBranchAddr, BlockBranches: 1000, Reps: 60}
			b, a, err := core.FindBlock(spy, rng.New(seed), cfg, core.StateSN, 3)
			if b != nil {
				o.Code, a.Block = b.Code(), nil
				c = chosenBlock{b, []uint64{cfg.TargetAddr}}
			}
			o.Analysis = a
			o.finish(spy, err)
			return o, c
		},
	}
	for _, allowST := range []bool{false, true} {
		searches[fmt.Sprintf("multi/allowST=%v", allowST)] = func(spy *cpu.Context, seed uint64) (o searchOutcome, c chosenBlock) {
			ms, err := core.NewMultiSession(spy, rng.New(seed), core.MultiConfig{
				Targets: victims.CheckAddrs(), AllowST: allowST, MaxCandidates: 10,
			})
			if ms != nil {
				o.Code, o.Targets = ms.Block().Code(), ms.Targets()
				c = chosenBlock{ms.Block(), victims.CheckAddrs()}
			}
			o.finish(spy, err)
			return o, c
		}
	}
	var machines []searchMachine
	for _, m := range []uarch.Model{uarch.Skylake(), uarch.Haswell(), uarch.SandyBridge()} {
		machines = append(machines, searchMachine{m, false, false}, searchMachine{m, true, false}, searchMachine{m, true, true})
	}
	machines = append(machines, searchMachine{model: experiments.Fig4Model()})
	// At seed 9 the sixteen-target search without ST primes succeeds on
	// Haswell within its budget, and at seeds 2 and 9 the one with ST
	// primes does, so the self-verification that follows an accepted
	// analysis runs on a settled machine too. Timed machines, which cost
	// more to simulate in full, run those two seeds.
	seeds, timedSeeds := []uint64{1, 2, 9}, []uint64{2, 9}
	settledTimed := map[bool]int{} // by telemetry
	for name, search := range searches {
		found := 0
		for _, m := range machines {
			mseeds := seeds
			if m.timed {
				mseeds = timedSeeds
			}
			for _, seed := range mseeds {
				spy, fullSpy := m.spy(seed, false), m.spy(seed, true)
				settled, chosen := search(spy, seed)
				full, _ := search(fullSpy, seed)
				if m.timed {
					settled.Clock, full.Clock = spy.Core().Clock(), fullSpy.Core().Clock()
				}
				if full.Code != nil {
					found++
				}
				if !reflect.DeepEqual(settled, full) {
					t.Errorf("%s on %v, seed %d: the settled search differs from the fully simulated one:\n"+
						"settled: block %v err %q pmc %v commits %d clock %d\n"+
						"full:    block %v err %q pmc %v commits %d clock %d",
						name, m, seed, settled.Code != nil, settled.Err, settled.PMC, settled.Diag.Commits, settled.Clock,
						full.Code != nil, full.Err, full.PMC, full.Diag.Commits, full.Clock)
				}
				if m.timed && chosen.block != nil && chosen.settles(spy) {
					settledTimed[m.tel]++
				}
			}
		}
		if found == 0 {
			t.Errorf("%s: no search found a block, so no accepted analysis was compared", name)
		}
	}
	for _, tel := range []bool{false, true} {
		if settledTimed[tel] == 0 {
			t.Errorf("no chosen block's analysis settled on a timed machine (telemetry %v)", tel)
		}
	}
}
