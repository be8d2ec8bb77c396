package cpu

import (
	"reflect"
	"testing"

	"branchscope/internal/bpu"
	"branchscope/internal/rng"
)

// analysisRep builds a repetition shaped like a block analysis's: a
// compiled block of branches that alias in the property predictor,
// then a two-branch probe read through the miss counter. Each call
// appends the probe's observation to *obs.
func analysisRep(ctx *Context, seed uint64, probeTaken bool, obs *[][2]bool) func() {
	r := rng.New(seed)
	plan := ctx.NewPlan(0)
	for i := 0; i < 64; i++ {
		addr := 0x2000 + uint64(r.Intn(2048))
		if r.Intn(4) == 0 {
			plan.Nop(addr)
		} else {
			plan.Branch(addr, r.Intn(3) == 0)
		}
	}
	probe := ctx.ResolveBranch(0x2400)
	return func() {
		plan.Run()
		m0 := ctx.ReadPMC(BranchMisses)
		probe.Execute(probeTaken)
		m1 := ctx.ReadPMC(BranchMisses)
		probe.Execute(probeTaken)
		m2 := ctx.ReadPMC(BranchMisses)
		*obs = append(*obs, [2]bool{m1 > m0, m2 > m1})
	}
}

// analyze runs both halves of an analysis-shaped search on ctx, as
// core.AnalyzeBlock does: reps repetitions probing taken, then reps
// probing not-taken, filling the observations of repetitions Repeat
// did not simulate with the last simulated one's. It appends the
// observations to *obs and returns how many repetitions it simulated.
func analyze(ctx *Context, seed uint64, reps int, obs *[][2]bool) int {
	sim := 0
	for _, taken := range []bool{true, false} {
		want := len(*obs) + reps
		sim += ctx.Repeat(reps, analysisRep(ctx, seed, taken, obs))
		for len(*obs) < want {
			*obs = append(*obs, (*obs)[len(*obs)-1])
		}
	}
	return sim
}

// TestRepeatSettlesExactly: on a clockless core Repeat stops simulating
// once a repetition leaves the predictor as it found it, and everything
// the context and the unit expose — the observations, all four PMCs,
// the predictor state and its lifetime diagnostics — equals a run that
// simulated every repetition (a retire hook keeps Repeat from
// settling).
func TestRepeatSettlesExactly(t *testing.T) {
	const reps = 60
	settled := 0
	for seed := uint64(1); seed <= 40; seed++ {
		var ctx [2]*Context
		var obs [2][][2]bool
		var sim [2]int
		for i, hooked := range []bool{false, true} {
			ctx[i] = NewCore(propBPU, Timing{}, seed).NewContext(1)
			if hooked {
				ctx[i].SetHook(func(bool) {})
			}
			// Two analyses back to back: the second starts from the
			// state the first left and reuses Repeat's record.
			sim[i] = analyze(ctx[i], seed, reps, &obs[i]) + analyze(ctx[i], seed+1000, reps, &obs[i])
		}
		if sim[1] != 4*reps {
			t.Fatalf("seed %d: a hooked context simulated %d of %d repetitions", seed, sim[1], 4*reps)
		}
		if sim[0] < 4*reps {
			settled++
		}
		if !reflect.DeepEqual(obs[0], obs[1]) {
			t.Errorf("seed %d: observations differ from the fully simulated run", seed)
		}
		if ctx[0].pmc != ctx[1].pmc {
			t.Errorf("seed %d: PMCs %v, fully simulated %v", seed, ctx[0].pmc, ctx[1].pmc)
		}
		u0, u1 := ctx[0].Core().BPU(), ctx[1].Core().BPU()
		if !reflect.DeepEqual(u0.Snapshot(), u1.Snapshot()) {
			t.Errorf("seed %d: predictor state differs from the fully simulated run", seed)
		}
		if !reflect.DeepEqual(u0.Introspect(), u1.Introspect()) {
			t.Errorf("seed %d: predictor diagnostics differ from the fully simulated run", seed)
		}
	}
	if settled < 20 {
		t.Errorf("only %d of 40 seeds settled; the equality checks are too weak", settled)
	}
}

// TestRepeatSimulatesUnlessSettleable: Repeat settles only on a
// clockless core with no retire hook, no PMC read fault and a
// deterministic predictor; each of the other machines simulates every
// repetition of a search that settles on the plain one.
func TestRepeatSimulatesUnlessSettleable(t *testing.T) {
	const reps, seed = 60, 3
	stochastic := propBPU
	stochastic.Mitigation = bpu.MitigationStochasticFSM
	stochastic.StochasticP = 0.9
	cases := []struct {
		name   string
		settle bool
		ctx    func() *Context
	}{
		{"clockless", true, func() *Context { return NewCore(propBPU, Timing{}, seed).NewContext(1) }},
		{"timed", false, func() *Context { return NewCore(propBPU, DefaultTiming(), seed).NewContext(1) }},
		{"hooked", false, func() *Context {
			ctx := NewCore(propBPU, Timing{}, seed).NewContext(1)
			ctx.SetHook(func(bool) {})
			return ctx
		}},
		{"pmc read fault", false, func() *Context {
			core := NewCore(propBPU, Timing{}, seed)
			core.SetReadFaults(ReadFaults{PMC: func(_ Event, v uint64) uint64 { return v }})
			return core.NewContext(1)
		}},
		{"stochastic fsm", false, func() *Context { return NewCore(stochastic, Timing{}, seed).NewContext(1) }},
	}
	for _, c := range cases {
		var obs [][2]bool
		sim := analyze(c.ctx(), seed, reps, &obs)
		if settled := sim < 2*reps; settled != c.settle {
			t.Errorf("%s: simulated %d of %d repetitions, settled = %v, want %v",
				c.name, sim, 2*reps, settled, c.settle)
		}
	}
}
