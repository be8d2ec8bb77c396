package chaos

import (
	"strings"
	"testing"

	"branchscope/internal/cpu"
	"branchscope/internal/sched"
	"branchscope/internal/telemetry"
	"branchscope/internal/uarch"
)

func TestParseNamedForms(t *testing.T) {
	cases := []struct {
		in        string
		intensity float64
	}{
		{"light", LightIntensity},
		{"moderate", ModerateIntensity},
		{"heavy", HeavyIntensity},
		{"0.75", 0.75},
		{" moderate ", ModerateIntensity},
	}
	for _, c := range cases {
		got, err := Parse(c.in, 42)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if want := AtIntensity(42, c.intensity); got != want {
			t.Errorf("Parse(%q) = %+v, want AtIntensity(42, %g)", c.in, got, c.intensity)
		}
	}
	for _, in := range []string{"", "off", "0"} {
		p, err := Parse(in, 42)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if p.Enabled() {
			t.Errorf("Parse(%q) enabled: %+v", in, p)
		}
		if p.Seed != 42 {
			t.Errorf("Parse(%q).Seed = %d, want 42", in, p.Seed)
		}
	}
	for _, in := range []string{"extreme", "-1", "{broken"} {
		if _, err := Parse(in, 42); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

// TestParseStringRoundTrip pins the replay contract: the canonical JSON
// a plan prints (into a log or ledger) parses back to the identical
// plan, keeping its own recorded seed over the flag seed.
func TestParseStringRoundTrip(t *testing.T) {
	p := AtIntensity(7, HeavyIntensity)
	p.PMCCorrupt.Span = 9
	p.TSCJitter.Magnitude = 33
	got, err := Parse(p.String(), 999)
	if err != nil {
		t.Fatalf("Parse(%q): %v", p.String(), err)
	}
	if got != p {
		t.Errorf("round trip changed the plan:\n got %+v\nwant %+v", got, p)
	}
	// A JSON plan without a seed takes the flag seed.
	got, err = Parse(`{"preempt":{"prob":0.5}}`, 999)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 999 || got.Preempt.Prob != 0.5 {
		t.Errorf("seedless JSON plan = %+v", got)
	}
}

func TestAtIntensityScalesAndClamps(t *testing.T) {
	if p := AtIntensity(1, 0); p.Enabled() {
		t.Errorf("intensity 0 enabled: %+v", p)
	}
	light, moderate := AtIntensity(1, LightIntensity), AtIntensity(1, ModerateIntensity)
	if light.Preempt.Prob >= moderate.Preempt.Prob {
		t.Errorf("light preempt %g not below moderate %g", light.Preempt.Prob, moderate.Preempt.Prob)
	}
	huge := AtIntensity(1, 1e6)
	for name, prob := range map[string]float64{
		"preempt": huge.Preempt.Prob, "migrate": huge.Migrate.Prob,
		"pmc": huge.PMCCorrupt.Prob, "tsc": huge.TSCJitter.Prob,
		"victim": huge.VictimJitter.Prob,
	} {
		if prob > 1 {
			t.Errorf("%s prob %g not clamped", name, prob)
		}
	}
}

// chaosTestRig boots a machine with a registry attached and an injector
// realizing the plan, plus a spy context to read counters from.
func chaosTestRig(t *testing.T, plan Plan) (*telemetry.Registry, *Injector, *cpu.Context) {
	t.Helper()
	reg := telemetry.NewRegistry()
	sys := sched.NewSystem(uarch.SandyBridge(), 0xc4a05)
	sys.SetTelemetry(telemetry.New(reg, nil))
	spy := sys.NewProcess("spy")
	inj := NewInjector(sys, plan)
	return reg, inj, spy
}

// driveEpisodes runs n synthetic episodes against the injector and
// returns a digest of everything the spy architecturally observes: the
// fault schedule is a pure function of (plan, episode sequence), so
// the digest must be identical across runs with the same plan.
func driveEpisodes(inj *Injector, spy *cpu.Context, n int) []uint64 {
	var obs []uint64
	for i := 0; i < n; i++ {
		inj.BeforeStep()
		spy.Branch(0x400000+uint64(i%64)*16, i%3 == 0)
		inj.AfterStep()
		t0 := spy.ReadTSC()
		obs = append(obs, spy.ReadTSC()-t0, spy.ReadPMC(cpu.BranchMisses))
	}
	return obs
}

func TestInjectorScheduleDeterministic(t *testing.T) {
	plan := AtIntensity(77, HeavyIntensity)
	reg1, inj1, spy1 := chaosTestRig(t, plan)
	_, inj2, spy2 := chaosTestRig(t, plan)
	a, b := driveEpisodes(inj1, spy1, 400), driveEpisodes(inj2, spy2, 400)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same plan diverged at observation %d: %d vs %d", i, a[i], b[i])
		}
	}
	if v := reg1.Counter("chaos.episodes").Value(); v != 400 {
		t.Errorf("episodes seen = %d, want 400", v)
	}
	// A reseeded plan yields a different schedule (the seeds here are
	// fixed, so this is a deterministic assertion, not a probabilistic
	// one).
	_, inj3, spy3 := chaosTestRig(t, plan.WithSeed(78))
	c := driveEpisodes(inj3, spy3, 400)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("reseeded plan produced the identical observation stream")
	}
}

func TestInjectorDisabledPlanInjectsNothing(t *testing.T) {
	reg, inj, spy := chaosTestRig(t, Plan{Seed: 5})
	driveEpisodes(inj, spy, 200)
	for _, name := range []string{
		"chaos.preemptions", "chaos.migrations", "chaos.pmc_windows",
		"chaos.tsc_windows", "chaos.victim_jitters", "chaos.corrupted_reads",
	} {
		if v := reg.Counter(name).Value(); v != 0 {
			t.Errorf("%s = %d under a disabled plan", name, v)
		}
	}
	if v := reg.Counter("chaos.episodes").Value(); v != 200 {
		t.Errorf("chaos.episodes = %d, want 200", v)
	}
}

func TestInjectorFaultsReachArchitecturalSurfaces(t *testing.T) {
	// Probability-1 faults with tiny spans: every episode opens some
	// window, so corrupted reads and preemption bursts must show up in
	// the counters — and only via the architectural read path.
	plan := Plan{
		Seed:       3,
		Preempt:    Spec{Prob: 1, Magnitude: 50},
		PMCCorrupt: Spec{Prob: 1, Span: 1, Magnitude: 2},
		TSCJitter:  Spec{Prob: 1, Span: 1, Magnitude: 40},
	}
	reg, inj, spy := chaosTestRig(t, plan)
	driveEpisodes(inj, spy, 50)
	for _, name := range []string{
		"chaos.preemptions", "chaos.pmc_windows", "chaos.tsc_windows",
		"chaos.corrupted_reads",
	} {
		if v := reg.Counter(name).Value(); v == 0 {
			t.Errorf("%s = 0 under probability-1 faults", name)
		}
	}
	// Detach removes the read hooks: PMC reads are truthful again.
	inj.Detach()
	before := spy.ReadPMC(cpu.BranchMisses)
	if again := spy.ReadPMC(cpu.BranchMisses); again != before {
		t.Errorf("PMC read unstable after Detach: %d then %d", before, again)
	}
}

// fixedStepper records the step sizes the harness asked for.
type fixedStepper struct{ steps []int }

func (f *fixedStepper) StepBranches(k int) bool {
	f.steps = append(f.steps, k)
	return true
}

func TestWrapStepperVictimJitter(t *testing.T) {
	_, inj, _ := chaosTestRig(t, Plan{Seed: 9, VictimJitter: Spec{Prob: 1, Magnitude: 3}})
	inner := &fixedStepper{}
	wrapped := inj.WrapStepper(inner)
	for i := 0; i < 20; i++ {
		wrapped.StepBranches(1)
	}
	for i, k := range inner.steps {
		if k < 2 || k > 4 {
			t.Errorf("step %d advanced %d branches, want 1+[1,3] extra", i, k)
		}
	}
	// No victim jitter in the plan: the victim is returned unwrapped.
	_, inj2, _ := chaosTestRig(t, Plan{Seed: 9, Preempt: Spec{Prob: 1}})
	inner2 := &fixedStepper{}
	if inj2.WrapStepper(inner2) != Stepper(inner2) {
		t.Error("WrapStepper wrapped a victim with no jitter in the plan")
	}
}

func TestSelfClockSynthesizesEpisodes(t *testing.T) {
	reg, inj, spy := chaosTestRig(t, Plan{Seed: 11, Preempt: Spec{Prob: 1, Magnitude: 30}})
	inj.SelfClock(4)
	for i := 0; i < 40; i++ {
		spy.ReadPMC(cpu.BranchMisses)
	}
	if v := reg.Counter("chaos.episodes").Value(); v != 10 {
		t.Errorf("chaos.episodes = %d after 40 reads at SelfClock(4), want 10", v)
	}
	if v := reg.Counter("chaos.preemptions").Value(); v != 10 {
		t.Errorf("chaos.preemptions = %d, want 10 (prob 1, fired immediately)", v)
	}
	// Returning to episode-driven mode stops the synthetic clock.
	inj.SelfClock(0)
	before := reg.Counter("chaos.episodes").Value()
	for i := 0; i < 40; i++ {
		spy.ReadPMC(cpu.BranchMisses)
	}
	if v := reg.Counter("chaos.episodes").Value(); v != before {
		t.Errorf("episodes advanced (%d -> %d) with SelfClock(0)", before, v)
	}
}

func TestPlanStringIsCanonicalJSON(t *testing.T) {
	s := AtIntensity(3, ModerateIntensity).String()
	if !strings.HasPrefix(s, "{") || !strings.Contains(s, `"seed":3`) {
		t.Errorf("Plan.String() not canonical JSON: %s", s)
	}
}
