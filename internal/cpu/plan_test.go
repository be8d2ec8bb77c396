package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"branchscope/internal/bpu"
	"branchscope/internal/fsm"
	"branchscope/internal/rng"
)

func planTestCore(seed uint64) *Core {
	return NewCore(bpu.Config{
		FSM:          fsm.SkylakeAsym(),
		PHTSize:      1024,
		SelectorSize: 256,
		GHRBits:      12,
		TagEntries:   128,
		BTBEntries:   256,
		Mode:         bpu.Hybrid,
		SelectorInit: 3,
	}, DefaultTiming(), seed)
}

// TestPlanMatchesSerialExecution pins the ExecPlan contract: a batched
// run must leave the machine — clock, PMCs, predictor state, icache,
// and the randomness stream — in exactly the state the equivalent
// serial Branch/Nop calls produce.
func TestPlanMatchesSerialExecution(t *testing.T) {
	serialCore, batchCore := planTestCore(77), planTestCore(77)
	serial := serialCore.NewContext(1)
	batch := batchCore.NewContext(1)

	type op struct {
		addr   uint64
		taken  bool
		branch bool
	}
	var ops []op
	base := uint64(0x6100_0000)
	for i := 0; i < 300; i++ {
		a := base + uint64(i%24)*20
		ops = append(ops, op{addr: a, branch: i%5 != 0, taken: i%3 == 0})
	}

	plan := batch.NewPlan(len(ops))
	for _, o := range ops {
		if o.branch {
			plan.Branch(o.addr, o.taken)
		} else {
			plan.Nop(o.addr)
		}
	}

	for rep := 0; rep < 50; rep++ {
		for _, o := range ops {
			if o.branch {
				serial.Branch(o.addr, o.taken)
			} else {
				serial.Nop(o.addr)
			}
		}
		plan.Run()

		if serialCore.Clock() != batchCore.Clock() {
			t.Fatalf("rep %d: clock diverged: serial %d batch %d", rep, serialCore.Clock(), batchCore.Clock())
		}
		for e := Event(0); e < numEvents; e++ {
			if sv, bv := serial.ReadPMC(e), batch.ReadPMC(e); sv != bv {
				t.Fatalf("rep %d: PMC %v diverged: serial %d batch %d", rep, e, sv, bv)
			}
		}
	}
	if !reflect.DeepEqual(serialCore.Snapshot(), batchCore.Snapshot()) {
		t.Fatal("core state diverged between serial and batched execution")
	}
}

// TestPlanHookedFallback pins that a context with a retire hook gets
// per-op hook delivery from Run, in order, with correct branch flags.
func TestPlanHookedFallback(t *testing.T) {
	core := planTestCore(5)
	x := core.NewContext(1)
	var got []bool
	x.SetHook(func(isBranch bool) { got = append(got, isBranch) })

	plan := x.NewPlan(4)
	plan.Branch(0x100, true)
	plan.Nop(0x200)
	plan.Branch(0x300, false)
	plan.Run()

	want := []bool{true, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hook delivery = %v, want %v", got, want)
	}
}

// TestResolvedBranchMatchesBranch pins ResolvedBranch/BranchRepeat
// against per-call Branch on identically seeded cores.
func TestResolvedBranchMatchesBranch(t *testing.T) {
	serialCore, cachedCore := planTestCore(9), planTestCore(9)
	serial := serialCore.NewContext(2)
	cached := cachedCore.NewContext(2)

	addr := uint64(0x4000)
	rb := cached.ResolveBranch(addr)
	for i := 0; i < 2000; i++ {
		taken := i%7 < 4
		serial.Branch(addr, taken)
		rb.Execute(taken)
	}
	serial.BranchRepeat(addr+64, true, 100) // same-machine API sanity
	cached.BranchRepeat(addr+64, true, 100)

	if serialCore.Clock() != cachedCore.Clock() {
		t.Fatalf("clock diverged: serial %d cached %d", serialCore.Clock(), cachedCore.Clock())
	}
	if !reflect.DeepEqual(serialCore.Snapshot(), cachedCore.Snapshot()) {
		t.Fatal("core state diverged between Branch and ResolvedBranch execution")
	}
}

// scanBucket is the reference half-normal lookup that halfNormal.bucket
// indexes: a linear scan for the first cumulative threshold above the
// draw, clamped to the last bucket.
func scanBucket(tab []uint64, u uint64) uint64 {
	j := uint64(0)
	for _, th := range tab {
		if u < th {
			break
		}
		j++
	}
	if j >= uint64(len(tab)) {
		j = uint64(len(tab)) - 1
	}
	return j
}

// TestJitterIndexMatchesScan pins the indexed draw to the reference scan
// at every threshold ±1, at both ends of all 256 top-byte slots and on
// 10^6 random draws. The tables run from a single saturated bucket
// (σ = 0) through several hundred buckets (σ = 40) to slots whose first
// candidate bucket is past what an index entry can name (σ = 200), plus
// a synthetic table with thresholds on and next to slot boundaries and
// repeated thresholds.
func TestJitterIndexMatchesScan(t *testing.T) {
	type table struct {
		name string
		h    halfNormal
	}
	var tables []table
	for _, sigma := range []float64{0, 0.5, 2.5, 40, 200} {
		tables = append(tables, table{fmt.Sprintf("σ=%v", sigma), newHalfNormal(sigma)})
	}
	synthetic := halfNormal{tab: []uint64{
		1 << 56, 1<<56 + 1, 2<<56 - 1, 2 << 56, 2 << 56, 5<<56 - 1, 0xff << 56, ^uint64(0),
	}}
	synthetic.index()
	tables = append(tables, table{"synthetic", synthetic})
	if n := len(tables[3].h.tab); n <= 256 {
		t.Fatalf("σ=40 table has %d buckets, want more than 256", n)
	}
	if tables[4].h.idx[255] != 255 {
		t.Fatalf("σ=200 index tops out at bucket %d, want the 255 cap", tables[4].h.idx[255])
	}
	for i, tb := range tables {
		h := tb.h
		var draws []uint64
		for _, th := range h.tab {
			draws = append(draws, th-1, th, th+1)
		}
		for b := uint64(0); b < 256; b++ {
			draws = append(draws, b<<56, b<<56|(1<<56-1))
		}
		r := rng.New(uint64(i) + 7)
		for n := 0; n < 1_000_000; n++ {
			draws = append(draws, r.Uint64())
		}
		for _, u := range draws {
			if got, want := h.bucket(u), scanBucket(h.tab, u); got != want {
				t.Fatalf("%s: bucket(%#x) = %d, reference scan %d", tb.name, u, got, want)
			}
		}
	}
}

// TestJitterDrawOrder checks that Core.jitter returns what the reference
// scan returns and consumes the core RNG exactly as before: one draw for
// the sample, one for the spike decision, one more for a spike's size.
func TestJitterDrawOrder(t *testing.T) {
	core := planTestCore(99)
	ref := *core.rnd
	tab := buildJitterTab(core.timing.JitterSigma)
	for i := 0; i < 200_000; i++ {
		want := scanBucket(tab, ref.Uint64())
		if ref.Uint64() < core.spikeThr {
			want += ref.Uint64n(core.timing.SpikeMax + 1)
		}
		if got := core.jitter(); got != want {
			t.Fatalf("draw %d: jitter = %d, reference %d", i, got, want)
		}
	}
	if *core.rnd != ref {
		t.Fatal("jitter consumed the core RNG differently from the reference")
	}
}

// TestJitterTableDistribution sanity-checks the quantized sampler: the
// empirical mean of uint64(|N(0,σ)|) is ~σ·√(2/π) − 1/2 (half-normal
// mean shifted by the floor), and the table is monotone and saturated.
func TestJitterTableDistribution(t *testing.T) {
	tab := buildJitterTab(2.5)
	if tab[len(tab)-1] != ^uint64(0) {
		t.Fatalf("jitter table not saturated: last threshold %#x", tab[len(tab)-1])
	}
	for i := 1; i < len(tab); i++ {
		if tab[i] < tab[i-1] {
			t.Fatalf("jitter table not monotone at %d", i)
		}
	}
	core := planTestCore(123)
	core.spikeThr = 0 // isolate the half-normal term
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(core.jitter())
	}
	mean := sum / n
	// E[floor(|N(0,2.5)|)] ≈ 2.5·√(2/π) − 0.5 ≈ 1.49; allow generous slack.
	if mean < 1.3 || mean > 1.7 {
		t.Fatalf("jitter mean = %.3f, want ≈1.49", mean)
	}

	if got := buildJitterTab(0); len(got) != 1 || got[0] != ^uint64(0) {
		t.Fatalf("σ=0 table = %v, want single saturated bucket", got)
	}
}
