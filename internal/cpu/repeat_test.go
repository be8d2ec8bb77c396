package cpu

import (
	"bytes"
	"reflect"
	"testing"

	"branchscope/internal/bpu"
	"branchscope/internal/rng"
	"branchscope/internal/telemetry"
)

// analysisRep builds a repetition shaped like a block analysis's: a
// compiled block of branches that alias in the property predictor,
// then a two-branch probe read through the miss counter. About one op
// in eight sits a whole icache away from the block's other lines, so
// on a timed core some fetches miss again in every repetition. Each
// call appends the probe's observation to *obs, then runs extra when
// it is not nil.
func analysisRep(ctx *Context, seed uint64, probeTaken bool, obs *[][2]bool, extra func(*Context)) func() {
	r := rng.New(seed)
	plan := ctx.NewPlan(0)
	for i := 0; i < 64; i++ {
		addr := 0x2000 + uint64(r.Intn(2048))
		if r.Intn(8) == 0 {
			addr += ICacheLines * 64
		}
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
		if extra != nil {
			extra(ctx)
		}
	}
}

// analyze runs both halves of an analysis-shaped search on ctx, as
// core.AnalyzeBlock does: reps repetitions probing taken, then reps
// probing not-taken, filling the observations of repetitions Repeat
// did not simulate with the last simulated one's. It appends the
// observations to *obs and returns how many repetitions it simulated.
// extra, when not nil, runs at the end of every repetition.
func analyze(ctx *Context, seed uint64, reps int, obs *[][2]bool, extra func(*Context)) int {
	sim := 0
	for _, taken := range []bool{true, false} {
		want := len(*obs) + reps
		sim += ctx.Repeat(reps, analysisRep(ctx, seed, taken, obs, extra))
		for len(*obs) < want {
			*obs = append(*obs, (*obs)[len(*obs)-1])
		}
	}
	return sim
}

// TestRepeatSettlesExactly: on clockless and timed cores, with and
// without telemetry, Repeat stops simulating once a repetition leaves
// the predictor and the icache as it found them, and everything the
// machine exposes — the observations, all four PMCs, the predictor
// state and its lifetime diagnostics, the clock, the icache and the
// core RNG, and the telemetry counters — equals a run that simulated
// every repetition (a retire hook keeps Repeat from settling).
func TestRepeatSettlesExactly(t *testing.T) {
	const reps = 60
	machines := []struct {
		name   string
		timing Timing
		tel    bool
	}{
		{"clockless", Timing{}, false},
		{"timed", DefaultTiming(), false},
		{"timed with telemetry", DefaultTiming(), true},
	}
	for _, m := range machines {
		settled := 0
		for seed := uint64(1); seed <= 40; seed++ {
			var ctx [2]*Context
			var obs [2][][2]bool
			var sim [2]int
			var metrics [2]bytes.Buffer
			var sets [2]*telemetry.Set
			for i, hooked := range []bool{false, true} {
				core := NewCore(propBPU, m.timing, seed)
				if m.tel {
					sets[i] = telemetry.New(telemetry.NewRegistry(), nil)
					core.SetTelemetry(sets[i])
				}
				ctx[i] = core.NewContext(1)
				if hooked {
					ctx[i].SetHook(func(bool) {})
				}
				// Two analyses back to back: the second starts from the
				// state the first left and reuses Repeat's record.
				sim[i] = analyze(ctx[i], seed, reps, &obs[i], nil) + analyze(ctx[i], seed+1000, reps, &obs[i], nil)
				if m.tel {
					if err := sets[i].Metrics.Snapshot().WriteJSON(&metrics[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if sim[1] != 4*reps {
				t.Fatalf("%s, seed %d: a hooked context simulated %d of %d repetitions", m.name, seed, sim[1], 4*reps)
			}
			if sim[0] < 4*reps {
				settled++
			}
			if !reflect.DeepEqual(obs[0], obs[1]) {
				t.Errorf("%s, seed %d: observations differ from the fully simulated run", m.name, seed)
			}
			if ctx[0].pmc != ctx[1].pmc {
				t.Errorf("%s, seed %d: PMCs %v, fully simulated %v", m.name, seed, ctx[0].pmc, ctx[1].pmc)
			}
			c0, c1 := ctx[0].Core(), ctx[1].Core()
			if !reflect.DeepEqual(c0.Snapshot(), c1.Snapshot()) {
				t.Errorf("%s, seed %d: predictor, clock, icache or core RNG differs from the fully simulated run", m.name, seed)
			}
			if !reflect.DeepEqual(c0.BPU().Introspect(), c1.BPU().Introspect()) {
				t.Errorf("%s, seed %d: predictor diagnostics differ from the fully simulated run", m.name, seed)
			}
			if m.timing != (Timing{}) && c0.Clock() != c1.Clock() {
				t.Errorf("%s, seed %d: clock %d, fully simulated %d", m.name, seed, c0.Clock(), c1.Clock())
			}
			if metrics[0].String() != metrics[1].String() {
				t.Errorf("%s, seed %d: metrics differ from the fully simulated run:\n%s\nfull:\n%s",
					m.name, seed, metrics[0].String(), metrics[1].String())
			}
		}
		if settled < 20 {
			t.Errorf("%s: only %d of 40 seeds settled; the equality checks are too weak", m.name, settled)
		}
	}
}

// TestRepeatSimulatesUnlessSettleable: Repeat settles only with no
// retire hook, no PMC read fault, a deterministic predictor and no
// clock read in the checked repetition; each of the other machines and
// repetitions simulates every repetition of a search that settles on
// the plain clockless and timed cores.
func TestRepeatSimulatesUnlessSettleable(t *testing.T) {
	const reps, seed = 60, 3
	stochastic := propBPU
	stochastic.Mitigation = bpu.MitigationStochasticFSM
	stochastic.StochasticP = 0.9
	timed := func() *Context { return NewCore(propBPU, DefaultTiming(), seed).NewContext(1) }
	cases := []struct {
		name   string
		settle bool
		ctx    func() *Context
		extra  func(*Context)
	}{
		{"clockless", true, func() *Context { return NewCore(propBPU, Timing{}, seed).NewContext(1) }, nil},
		{"timed", true, timed, nil},
		{"rdtscp", false, timed, func(ctx *Context) { ctx.ReadTSC() }},
		{"telemetry span", false, func() *Context {
			core := NewCore(propBPU, DefaultTiming(), seed)
			core.SetTelemetry(telemetry.New(telemetry.NewRegistry(), telemetry.NewTracer()))
			return core.NewContext(1)
		}, func(ctx *Context) {
			c := ctx.Core()
			start := c.Clock()
			c.Telemetry().Span(ctx.TID(), "test", "repetition", start, c.Clock(), nil)
		}},
		{"hooked", false, func() *Context {
			ctx := NewCore(propBPU, Timing{}, seed).NewContext(1)
			ctx.SetHook(func(bool) {})
			return ctx
		}, nil},
		{"pmc read fault", false, func() *Context {
			core := NewCore(propBPU, Timing{}, seed)
			core.SetReadFaults(ReadFaults{PMC: func(_ Event, v uint64) uint64 { return v }})
			return core.NewContext(1)
		}, nil},
		{"stochastic fsm", false, func() *Context { return NewCore(stochastic, Timing{}, seed).NewContext(1) }, nil},
	}
	for _, c := range cases {
		var obs [][2]bool
		sim := analyze(c.ctx(), seed, reps, &obs, c.extra)
		if settled := sim < 2*reps; settled != c.settle {
			t.Errorf("%s: simulated %d of %d repetitions, settled = %v, want %v",
				c.name, sim, 2*reps, settled, c.settle)
		}
	}
}
