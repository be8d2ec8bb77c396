package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"branchscope/internal/cpu"
	"branchscope/internal/telemetry"
	"branchscope/internal/trace"
	"branchscope/internal/uarch"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden compares got against the golden file, rewriting it first
// under -update. A mismatch quotes both sides around the first
// differing byte.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-80, 0)
	t.Errorf("%s drifted at byte %d (run with -update if intentional):\ngot:  …%s\nwant: …%s",
		golden, i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
}

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
// runs with the same seed export byte-identical metrics and trace JSON,
// and both match the committed goldens, so a change that shifts any
// simulated cycle count fails here. Regenerate with
// `go test ./internal/experiments -run CovertTelemetryDeterministic -update`
// only after an intentional change to simulated results.
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
	checkGolden(t, filepath.Join("testdata", "covert_metrics.golden.json"), m1)
	checkGolden(t, filepath.Join("testdata", "covert_trace.golden.json"), t1)
}

// TestCovertSpyHookKeepsClock pins the spy-hook clause of the covert
// machine rule: `branchscope -trace` attaches a trace.Recorder, which
// stamps every retired op with the cycle clock, so a cell with a spy
// hook runs on a timed machine even without telemetry.
func TestCovertSpyHookKeepsClock(t *testing.T) {
	var rec *trace.Recorder
	_, err := RunCovert(context.Background(), CovertConfig{
		Model:   uarch.Skylake(),
		Bits:    40,
		Runs:    1,
		Seed:    5,
		SpyHook: func(spy *cpu.Context) { rec = trace.Attach(spy, 64) },
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if len(evs) == 0 || evs[len(evs)-1].Cycle == 0 {
		t.Fatalf("spy trace recorded %d events, last cycle stamps missing", len(evs))
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
