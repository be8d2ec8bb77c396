// Hot-path throughput guardrail: the per-branch execution path was
// refactored (compiled FSM transition plane, resolved predictor sites,
// quantized jitter sampler, batched ExecPlan) and this file keeps the
// win from regressing. The baseline is a faithful in-test replica of
// the pre-refactor executor — the retained bpu.ReferenceUnit behind the
// original per-branch cost arithmetic, polar-method jitter, and
// per-event counter updates — measured in the same run as the live
// path, so the reported speedup is machine-independent. Results go to
// BENCH_hotpath.json; CI runs TestHotpathGuardrail with -guardrails
// and fails on regression below the gate.
package branchscope_test

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"branchscope/internal/bpu"
	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// hotpathSites is the benchmark working set: enough distinct branch
// addresses to exercise real index computation, few enough to stay
// icache-warm — the steady state of a prime loop.
const hotpathSites = 24

// legacyICacheEntry mirrors the (unchanged) icache line tags.
type legacyICacheEntry struct {
	valid  bool
	domain uint64
	line   uint64
}

// legacyMachine replays the pre-refactor per-branch execution path: the
// spec-walking ReferenceUnit predictor with eager per-call index
// resolution, the polar-method normal jitter draw, and the original
// cost arithmetic of Context.BranchTo, preserved operation for
// operation from the pre-refactor source.
type legacyMachine struct {
	unit   *bpu.ReferenceUnit
	timing cpu.Timing
	rnd    *rng.Source
	icache [cpu.ICacheLines]legacyICacheEntry
	clock  uint64
	pmc    [4]uint64 // instructions, branches, misses, allocations
}

func newLegacyMachine(seed uint64) *legacyMachine {
	return &legacyMachine{
		unit:   bpu.NewReference(uarch.Skylake().BPU),
		timing: cpu.DefaultTiming(),
		rnd:    rng.New(seed),
	}
}

func (m *legacyMachine) icacheAccess(domain, addr uint64) uint64 {
	line := addr >> 6
	e := &m.icache[line%cpu.ICacheLines]
	if e.valid && e.domain == domain && e.line == line {
		return 0
	}
	*e = legacyICacheEntry{valid: true, domain: domain, line: line}
	span := m.timing.ICacheMissMax - m.timing.ICacheMissMin
	if span == 0 {
		return m.timing.ICacheMissMin
	}
	return m.timing.ICacheMissMin + m.rnd.Uint64n(span+1)
}

// polarNorm draws a standard normal variate with the polar (Marsaglia)
// method, the pre-refactor jitter sampler.
func polarNorm(r *rng.Source) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

func (m *legacyMachine) jitter() uint64 {
	n := polarNorm(m.rnd) * m.timing.JitterSigma
	if n < 0 {
		n = -n
	}
	j := uint64(n)
	if m.rnd.Chance(m.timing.SpikeProb) {
		j += m.rnd.Uint64n(m.timing.SpikeMax + 1)
	}
	return j
}

func (m *legacyMachine) branch(domain, addr uint64, taken bool) {
	cost := m.timing.BranchBase
	cost += m.icacheAccess(domain, addr)
	l := m.unit.Predict(domain, addr)
	if l.Taken != taken {
		cost += m.timing.MispredictPenalty
		m.pmc[2]++
	}
	if taken && !l.BTBHit {
		cost += m.timing.BTBMissPenalty
	}
	cost += m.jitter()
	if m.unit.Commit(l, taken, addr+16) {
		m.pmc[3]++
	}
	m.clock += cost
	m.pmc[0]++
	m.pmc[1]++
}

// TestNormFloat64Moments checks the legacy replica's polar sampler
// draws a standard normal.
func TestNormFloat64Moments(t *testing.T) {
	r := rng.New(6)
	const n = 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := polarNorm(r)
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v", variance)
	}
}

// hotpathAddr returns the i-th branch address of the working set.
func hotpathAddr(i int) uint64 {
	return 0x6100_0000 + uint64(i%hotpathSites)*20
}

// BenchmarkHotpathLegacy measures the pre-refactor per-branch cost via
// the retained reference implementation.
func BenchmarkHotpathLegacy(b *testing.B) {
	m := newLegacyMachine(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.branch(1, hotpathAddr(i), i%3 == 0)
	}
}

// BenchmarkHotpathSerial measures the live per-call Branch path.
func BenchmarkHotpathSerial(b *testing.B) {
	mach := uarch.Skylake().NewCore(42)
	ctx := mach.NewContext(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Branch(hotpathAddr(i), i%3 == 0)
	}
}

// BenchmarkHotpathBatched measures the live batched ExecPlan path: the
// working set compiled once, executed b.N/hotpathSites times. ns/op is
// per branch, like the other two. The timed input is the one the
// guardrail gates; the clockless input is the same path on a core with
// no clock (no icache model, no timing draws), for comparison.
func BenchmarkHotpathBatched(b *testing.B) {
	b.Run("timed", func(b *testing.B) { benchHotpathBatched(b, uarch.Skylake()) })
	b.Run("clockless", func(b *testing.B) { benchHotpathBatched(b, uarch.Skylake().Clockless()) })
}

func benchHotpathBatched(b *testing.B, m uarch.Model) {
	mach := m.NewCore(42)
	ctx := mach.NewContext(1)
	plan := ctx.NewPlan(hotpathSites)
	for i := 0; i < hotpathSites; i++ {
		plan.Branch(hotpathAddr(i), i%3 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += hotpathSites {
		plan.Run()
	}
}

// blockSearchSeed fixes the candidate stream of BenchmarkBlockSearch: a
// seed whose search succeeds after a few hundred candidates.
const blockSearchSeed = 2

// BenchmarkBlockSearch measures the §6.3 multi-target block search at
// the core layer: core.NewMultiSession over the sixteen libjpeg check
// branches on a clockless Skylake, the search behind the jpeg
// experiment's single-episode spy. Every iteration builds a fresh
// machine, so each search starts from power-on predictor state and
// does the same work.
func BenchmarkBlockSearch(b *testing.B) {
	targets := victims.CheckAddrs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spy := sched.NewSystem(uarch.Skylake().Clockless(), 1).NewProcess("spy")
		if _, err := core.NewMultiSession(spy, rng.New(blockSearchSeed), core.MultiConfig{Targets: targets}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/search")
}

// readBitSession builds the steady-state resilient-read workload: a
// focused-block attack session against a looping victim.
func readBitSession(t testing.TB) (*core.Session, core.Stepper, func()) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	secret := rng.New(1).Bits(64)
	victim := sys.Spawn("victim", victims.LoopingSecretArraySender(secret, 0))
	spy := sys.NewProcess("spy")
	sess, err := core.NewSession(spy, rng.New(2), core.AttackConfig{
		Search: core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true},
		Retry:  core.RetryConfig{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess, victim, func() { victim.Kill() }
}

// TestReadBitZeroAlloc pins the steady-state allocation contract of the
// resilient read path: after warm-up (plan compilation, detector state),
// a ReadBit — prime, victim step, probe, vote — performs zero heap
// allocations.
func TestReadBitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	sess, victim, stop := readBitSession(t)
	defer stop()
	// Warm up: compile the block plan and settle predictor state.
	for i := 0; i < 8; i++ {
		sess.ReadBit(victim, nil, nil)
	}
	allocs := testing.AllocsPerRun(200, func() {
		sess.ReadBit(victim, nil, nil)
	})
	if allocs != 0 {
		t.Errorf("steady-state ReadBit allocates %.1f objects per read, want 0", allocs)
	}
}

// checkHotpathExecutorsAgree is the guardrail's precondition: the three
// executors it times must do the same predictor work over the working
// set, or their speedup compares unlike things.
func checkHotpathExecutorsAgree(t *testing.T) {
	t.Helper()
	const n = hotpathSites * 16
	legacy := newLegacyMachine(42)
	for i := 0; i < n; i++ {
		legacy.branch(1, hotpathAddr(i), i%3 == 0)
	}
	serial := uarch.Skylake().NewCore(42).NewContext(1)
	for i := 0; i < n; i++ {
		serial.Branch(hotpathAddr(i), i%3 == 0)
	}
	batched := uarch.Skylake().NewCore(42).NewContext(1)
	plan := batched.NewPlan(hotpathSites)
	for i := 0; i < hotpathSites; i++ {
		plan.Branch(hotpathAddr(i), i%3 == 0)
	}
	for i := 0; i < n; i += hotpathSites {
		plan.Run()
	}
	want := [3]uint64{legacy.pmc[1], legacy.pmc[2], legacy.pmc[3]}
	for _, x := range []struct {
		name string
		ctx  *cpu.Context
	}{{"serial", serial}, {"batched", batched}} {
		got := [3]uint64{
			x.ctx.ReadPMC(cpu.BranchInstructions),
			x.ctx.ReadPMC(cpu.BranchMisses),
			x.ctx.ReadPMC(cpu.BranchAllocations),
		}
		if got != want {
			t.Errorf("%s executor retired branches/misses/allocations %v, baseline %v", x.name, got, want)
		}
	}
}

// TestHotpathGuardrail measures the three executors in one run and
// writes BENCH_hotpath.json. The gate: the batched path must be at
// least minSpeedup times faster per branch than the pre-refactor
// baseline, and the steady-state probe path must not allocate.
func TestHotpathGuardrail(t *testing.T) {
	checkHotpathExecutorsAgree(t)
	if !timeGuardrail(t) {
		return
	}

	legacy := testing.Benchmark(BenchmarkHotpathLegacy)
	serial := testing.Benchmark(BenchmarkHotpathSerial)
	batched := testing.Benchmark(func(b *testing.B) { benchHotpathBatched(b, uarch.Skylake()) })

	legacyNs := float64(legacy.T.Nanoseconds()) / float64(legacy.N)
	serialNs := float64(serial.T.Nanoseconds()) / float64(serial.N)
	batchedNs := float64(batched.T.Nanoseconds()) / float64(batched.N)
	speedup := legacyNs / batchedNs

	sess, victim, stop := readBitSession(t)
	defer stop()
	for i := 0; i < 8; i++ {
		sess.ReadBit(victim, nil, nil)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sess.ReadBit(victim, nil, nil)
	})

	const minSpeedup = 2.0
	pass := speedup >= minSpeedup && allocs == 0

	report := struct {
		LegacyNsPerBranch  float64 `json:"baseline_ns_per_branch"`
		SerialNsPerBranch  float64 `json:"serial_ns_per_branch"`
		BatchedNsPerBranch float64 `json:"batched_ns_per_branch"`
		Speedup            float64 `json:"speedup_batched_over_baseline"`
		MinSpeedup         float64 `json:"min_speedup"`
		AllocsPerProbe     float64 `json:"allocs_per_readbit"`
		Sites              int     `json:"working_set_branches"`
		Pass               bool    `json:"pass"`
	}{
		LegacyNsPerBranch:  legacyNs,
		SerialNsPerBranch:  serialNs,
		BatchedNsPerBranch: batchedNs,
		Speedup:            speedup,
		MinSpeedup:         minSpeedup,
		AllocsPerProbe:     allocs,
		Sites:              hotpathSites,
		Pass:               pass,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_hotpath.json", append(out, '\n'), 0o644); err != nil {
		t.Fatalf("writing BENCH_hotpath.json: %v", err)
	}
	t.Logf("legacy %.1f ns/branch, serial %.1f, batched %.1f: speedup %.2fx, ReadBit allocs %.1f",
		legacyNs, serialNs, batchedNs, speedup, allocs)
	if speedup < minSpeedup {
		t.Errorf("batched hot path is only %.2fx the pre-refactor baseline (want >= %.1fx)",
			speedup, minSpeedup)
	}
	if allocs != 0 {
		t.Errorf("steady-state ReadBit allocates %.1f objects per read, want 0", allocs)
	}
}
