package experiments

import (
	"bytes"
	"context"
	"testing"

	"branchscope/internal/telemetry"
	"branchscope/internal/uarch"
)

func covertTelemetryRun(t *testing.T, seed uint64) (*telemetry.Set, CovertResult) {
	t.Helper()
	set := telemetry.New(telemetry.NewRegistry(), telemetry.NewTracer())
	cfg := CovertConfig{
		Model:     uarch.Skylake(),
		Setting:   Isolated,
		Pattern:   RandomBits,
		Bits:      40,
		Runs:      1,
		Seed:      seed,
		Telemetry: set,
	}
	res, err := RunCovert(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SetupFailed != 0 {
		t.Fatalf("block search failed (%d runs)", res.SetupFailed)
	}
	return set, res
}

// TestCovertTelemetryContent checks the full instrumentation stack in
// one covert run: episode accounting, the pattern distribution, the
// per-stage cycle histograms, scheduler counters and episode spans.
func TestCovertTelemetryContent(t *testing.T) {
	set, _ := covertTelemetryRun(t, 7)
	reg := set.Metrics

	if got := reg.Counter("core.episodes").Value(); got != 40 {
		t.Errorf("core.episodes = %d, want 40", got)
	}
	var patterns uint64
	for _, p := range []string{"HH", "HM", "MH", "MM"} {
		patterns += reg.Counter("core.patterns." + p).Value()
	}
	if patterns != 40 {
		t.Errorf("pattern counters sum to %d, want 40", patterns)
	}
	counts := map[string]uint64{}
	for _, h := range reg.Snapshot().Histograms {
		counts[h.Name] = h.Count
	}
	for _, name := range []string{"core.cycles.prime", "core.cycles.step", "core.cycles.probe", "core.cycles.episode"} {
		if got := counts[name]; got != 40 {
			t.Errorf("%s count = %d, want 40", name, got)
		}
	}
	if reg.Counter("covert.bits").Value() != 40 || reg.Counter("covert.runs").Value() != 1 {
		t.Error("covert.bits/covert.runs not recorded")
	}
	if reg.Counter("covert.simulated_cycles").Value() == 0 {
		t.Error("covert.simulated_cycles not recorded")
	}
	if reg.Counter("cpu.instructions").Value() == 0 || reg.Counter("cpu.branches").Value() == 0 {
		t.Error("cpu retire counters not recorded")
	}
	if reg.Counter("sched.steps").Value() == 0 {
		t.Error("sched.steps not recorded")
	}
	if reg.Counter("core.search.candidates").Value() == 0 {
		t.Error("block-search candidates not recorded")
	}

	episodes, quanta := 0, 0
	for _, ev := range set.Trace.Events() {
		switch {
		case ev.Phase == telemetry.PhaseComplete && ev.Name == "episode":
			episodes++
			if ev.Dur == 0 {
				t.Fatal("episode span with zero duration")
			}
		case ev.Phase == telemetry.PhaseComplete && ev.Name == "quantum":
			quanta++
		}
	}
	if episodes != 40 {
		t.Errorf("trace has %d episode spans, want 40", episodes)
	}
	if quanta == 0 {
		t.Error("trace has no scheduler quantum spans")
	}
}

// TestCovertTelemetryDeterministic pins the acceptance criterion: two
// runs with the same seed export byte-identical metrics and trace JSON.
func TestCovertTelemetryDeterministic(t *testing.T) {
	export := func() ([]byte, []byte) {
		set, _ := covertTelemetryRun(t, 3)
		var m, tr bytes.Buffer
		if err := set.Metrics.Snapshot().WriteJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := set.Trace.WriteJSON(&tr); err != nil {
			t.Fatal(err)
		}
		return m.Bytes(), tr.Bytes()
	}
	m1, t1 := export()
	m2, t2 := export()
	if !bytes.Equal(m1, m2) {
		t.Error("metrics JSON differs across identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("trace JSON differs across identical runs")
	}
}

// TestCovertSGXTelemetry checks the enclave counters and AEX spans.
func TestCovertSGXTelemetry(t *testing.T) {
	set := telemetry.New(telemetry.NewRegistry(), telemetry.NewTracer())
	res, err := RunCovert(context.Background(), CovertConfig{
		Model:     uarch.Skylake(),
		Setting:   Isolated,
		Pattern:   AllOnes,
		Bits:      20,
		Runs:      1,
		SGX:       true,
		Seed:      5,
		Telemetry: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SetupFailed != 0 {
		t.Fatal("setup failed")
	}
	reg := set.Metrics
	if reg.Counter("sgx.enclaves").Value() != 1 {
		t.Error("sgx.enclaves != 1")
	}
	if got := reg.Counter("sgx.single_steps").Value(); got != 20 {
		t.Errorf("sgx.single_steps = %d, want 20", got)
	}
	if reg.Counter("sgx.enclave_exits").Value() == 0 {
		t.Error("no enclave exits recorded")
	}
	aex := 0
	for _, ev := range set.Trace.Events() {
		if ev.Name == "aex+eresume" {
			aex++
		}
	}
	if aex == 0 {
		t.Error("no AEX spans in trace")
	}
}

// TestOverridesTelemetry checks the run's context overrides supply the
// telemetry set when a config carries none, and that a context without
// overrides records nothing.
func TestOverridesTelemetry(t *testing.T) {
	set := telemetry.New(telemetry.NewRegistry(), nil)
	cfg := CovertConfig{
		Model: uarch.Skylake(), Setting: Isolated, Pattern: AllZeros,
		Bits: 10, Runs: 1, Seed: 2,
	}
	ctx := WithOverrides(context.Background(), &Overrides{Telemetry: set})
	if _, err := RunCovert(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if set.Metrics.Counter("core.episodes").Value() != 10 {
		t.Error("override telemetry set not picked up")
	}
	if _, err := RunCovert(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if set.Metrics.Counter("core.episodes").Value() != 10 {
		t.Error("a run without overrides recorded into another run's set")
	}
}
