// Telemetry overhead guardrail: the covert channel must cost the same
// whether or not the telemetry package is linked in, as long as no
// telemetry set is attached. The pair of benchmarks below measures the
// same covert run with telemetry disabled (nil set — the default for
// every library user) and fully enabled (registry + tracer); the
// guardrail test compares them with testing.Benchmark and emits
// BENCH_telemetry.json so CI history can track the ratio. Both sides
// probe with rdtscp (§8), so both machines are timed: a PMC run without
// telemetry is built clockless, and comparing it with a timed one would
// hide a regression on the nil-telemetry path behind the clock's cost.
package branchscope_test

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"branchscope/internal/experiments"
	"branchscope/internal/telemetry"
	"branchscope/internal/uarch"
)

// benchCovertConfig is the workload under measurement: one quick covert
// run, sized so a single iteration is milliseconds, not seconds. The
// benchmarks time its rdtscp form (UseTiming).
func benchCovertConfig(set *telemetry.Set) experiments.CovertConfig {
	return experiments.CovertConfig{
		Model:     uarch.Skylake(),
		Setting:   experiments.Isolated,
		Pattern:   experiments.RandomBits,
		Bits:      200,
		Runs:      1,
		Seed:      1,
		Telemetry: set,
	}
}

func runCovertBench(b *testing.B, set *telemetry.Set) {
	b.Helper()
	cfg := benchCovertConfig(set)
	cfg.UseTiming = true
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		r, err := experiments.RunCovert(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.SetupFailed != 0 {
			b.Fatal("block search failed")
		}
	}
}

// BenchmarkCovertTelemetryDisabled is the uninstrumented baseline: the
// nil-set fast path every library caller gets by default, on a timed
// machine.
func BenchmarkCovertTelemetryDisabled(b *testing.B) {
	runCovertBench(b, nil)
}

// BenchmarkCovertTelemetryEnabled runs the same workload with a live
// registry and tracer attached (the -metrics-out -trace-out CLI cost).
func BenchmarkCovertTelemetryEnabled(b *testing.B) {
	runCovertBench(b, telemetry.New(telemetry.NewRegistry(), telemetry.NewTracer()))
}

// BenchmarkNilCounterInc measures the per-instrument cost on the
// disabled path: a nil-receiver method call the compiler can inline.
func BenchmarkNilCounterInc(b *testing.B) {
	var c *telemetry.Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// TestTelemetryOverheadGuardrail asserts the disabled-telemetry path is
// not paying for the instrumentation: the nil-set covert run must not be
// slower than the fully-enabled run beyond noise, and a nil counter
// increment must stay in fast-inlined-call territory. Results go to
// BENCH_telemetry.json in the repo root.
func TestTelemetryOverheadGuardrail(t *testing.T) {
	// Precondition: attaching telemetry changes no result, on the PMC
	// cell and on the rdtscp cell the benchmarks time. The disabled PMC
	// run is built clockless and the enabled one timed, so this also
	// proves that the two machines agree.
	for _, useTiming := range []bool{false, true} {
		var results [2]experiments.CovertResult
		for i, set := range []*telemetry.Set{nil, telemetry.New(telemetry.NewRegistry(), telemetry.NewTracer())} {
			cfg := benchCovertConfig(set)
			cfg.UseTiming = useTiming
			r, err := experiments.RunCovert(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Config.Telemetry = nil
			results[i] = r
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("attaching telemetry changed the covert result (UseTiming %v):\n disabled %+v\n enabled  %+v",
				useTiming, results[0], results[1])
		}
	}
	if !timeGuardrail(t) {
		return
	}

	disabled := testing.Benchmark(BenchmarkCovertTelemetryDisabled)
	enabled := testing.Benchmark(BenchmarkCovertTelemetryEnabled)
	nilInc := testing.Benchmark(BenchmarkNilCounterInc)

	ratio := float64(disabled.NsPerOp()) / float64(enabled.NsPerOp())
	nilNs := float64(nilInc.T.Nanoseconds()) / float64(nilInc.N)

	// Disabled must not exceed enabled by more than measurement noise:
	// the nil path does strictly less work, so anything past 25% means
	// the fast path regressed (e.g. a map lookup or allocation snuck in).
	const maxRatio = 1.25
	// A nil counter increment is one inlinable nil check; 25ns leaves
	// room for slow CI machines while still catching an accidental
	// mutex or map on the path (those cost hundreds of ns).
	const maxNilNs = 25.0

	pass := ratio <= maxRatio && nilNs <= maxNilNs
	report := struct {
		DisabledNsPerOp     int64   `json:"covert_disabled_ns_per_op"`
		EnabledNsPerOp      int64   `json:"covert_enabled_ns_per_op"`
		DisabledOverEnabled float64 `json:"disabled_over_enabled_ratio"`
		MaxRatio            float64 `json:"max_ratio"`
		NilCounterIncNs     float64 `json:"nil_counter_inc_ns"`
		MaxNilCounterNs     float64 `json:"max_nil_counter_inc_ns"`
		Bits                int     `json:"bits_per_op"`
		Pass                bool    `json:"pass"`
	}{
		DisabledNsPerOp:     disabled.NsPerOp(),
		EnabledNsPerOp:      enabled.NsPerOp(),
		DisabledOverEnabled: ratio,
		MaxRatio:            maxRatio,
		NilCounterIncNs:     nilNs,
		MaxNilCounterNs:     maxNilNs,
		Bits:                benchCovertConfig(nil).Bits,
		Pass:                pass,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_telemetry.json", append(out, '\n'), 0o644); err != nil {
		t.Fatalf("writing BENCH_telemetry.json: %v", err)
	}
	t.Logf("disabled %d ns/op, enabled %d ns/op (ratio %.3f), nil Inc %.2f ns",
		disabled.NsPerOp(), enabled.NsPerOp(), ratio, nilNs)
	if ratio > maxRatio {
		t.Errorf("disabled-telemetry run is %.2fx the enabled run (max %.2f): nil fast path regressed",
			ratio, maxRatio)
	}
	if nilNs > maxNilNs {
		t.Errorf("nil counter Inc costs %.1f ns (max %.0f): disabled instruments are no longer free",
			nilNs, maxNilNs)
	}
}
