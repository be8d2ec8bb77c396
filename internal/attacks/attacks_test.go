package attacks

import (
	"math/big"
	"testing"

	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

func TestRecoverMontgomeryExponent(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 21)
	exp := new(big.Int).SetUint64(0xdead_beef_cafe_f00d)
	res, err := RecoverMontgomeryExponent(sys, exp, 1, 5)
	if err != nil {
		t.Fatalf("RecoverMontgomeryExponent: %v", err)
	}
	t.Log(res)
	if res.Bits != exp.BitLen()-1 {
		t.Errorf("attacked %d bits, want %d", res.Bits, exp.BitLen()-1)
	}
	if res.ErrorRate() > 0.02 {
		t.Errorf("bit error rate %.2f%% too high", 100*res.ErrorRate())
	}
	if res.BitErrors == 0 && res.Recovered.Cmp(exp) != 0 {
		t.Error("zero bit errors but wrong exponent reconstruction")
	}
}

func TestRecoverMontgomeryMajorityVoting(t *testing.T) {
	sys := sched.NewSystem(uarch.SandyBridge(), 31)
	exp := new(big.Int).SetUint64(0xabcdef12)
	res, err := RecoverMontgomeryExponent(sys, exp, 3, 7)
	if err != nil {
		t.Fatalf("RecoverMontgomeryExponent: %v", err)
	}
	if res.ErrorRate() > 0.05 {
		t.Errorf("majority-voted error rate %.2f%% too high", 100*res.ErrorRate())
	}
}

func TestRecoverJPEGStructure(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 41)
	r := rng.New(13)
	blocks := make([]victims.Block, 4)
	for i := range blocks {
		blocks[i][0][0] = int32(r.Intn(100))
		// Sparse AC energy so zero and non-zero structures both occur.
		for k := 0; k < 3; k++ {
			blocks[i][r.Intn(8)][r.Intn(8)] = int32(r.Intn(20) - 10)
		}
	}
	res, err := RecoverJPEGStructure(sys, blocks, 3)
	if err != nil {
		t.Fatalf("RecoverJPEGStructure: %v", err)
	}
	t.Log(res)
	if len(res.Recovered) != len(blocks) {
		t.Fatalf("recovered %d blocks, want %d", len(res.Recovered), len(blocks))
	}
	if res.ErrorRate() > 0.05 {
		t.Errorf("branch error rate %.2f%% too high", 100*res.ErrorRate())
	}
	if res.Recovered[0].String() == "" {
		t.Error("empty structure string")
	}
}

func TestDerandomizeASLRNarrowsToIndexClass(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 51)
	const base = 0x0055_4000_0000
	const offset = 0x6d0
	const secretSlide = 37 // page-aligned slide index
	secretAddr := base + uint64(secretSlide)<<12 + offset
	th := sys.Spawn("victim", victims.MultiBranchASLRProcess(base+uint64(secretSlide)<<12, []uint64{offset}))
	defer th.Kill()
	// 64 candidate page-aligned slides; the scan must flag exactly the
	// PHT-index collision class of the real one. Address bits 14–15 do
	// not reach the index, so the class has 4 members (slide bits 2–3
	// free).
	var candidates []uint64
	for i := 0; i < 64; i++ {
		candidates = append(candidates, base+uint64(i)<<12+offset)
	}
	res := DerandomizeASLR(sys, th, candidates, 1, 7, 3)
	t.Log(res)
	if len(res.Collisions) != 4 {
		t.Errorf("collision class size %d, want 4: %#x", len(res.Collisions), res.Collisions)
	}
	found := false
	for _, c := range res.Collisions {
		if c == secretAddr {
			found = true
		}
	}
	if !found {
		t.Errorf("victim address %#x not in collision class %#x", secretAddr, res.Collisions)
	}
}

func TestDerandomizeASLRMultiPinpointsSlide(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 53)
	const base = 0x0055_4000_0000
	// Branch offsets of the victim binary, chosen (by the binary, not
	// the attacker) such that carries couple slide bits 14–15 into the
	// visible index: carry thresholds at slide%16 >= 4, 8, 12.
	offsets := []uint64{0x6d0, 0xc9a0, 0x8b30, 0x47c0}
	const secretSlide = 46
	slide := uint64(base + secretSlide<<12)
	th := sys.Spawn("victim", victims.MultiBranchASLRProcess(slide, offsets))
	defer th.Kill()
	var slides []uint64
	for i := 0; i < 64; i++ {
		slides = append(slides, base+uint64(i)<<12)
	}
	res := DerandomizeASLRMulti(sys, th, slides, offsets, 7, 5)
	t.Log(res)
	if res.Found != slide {
		t.Errorf("found %#x, want %#x (survivors: %#x)", res.Found, slide, res.Collisions)
	}
}

func TestBTBSpyRecoversBits(t *testing.T) {
	m := uarch.Skylake()
	sys := sched.NewSystem(m, 61)
	secret := rng.New(17).Bits(300)
	victim := sys.Spawn("victim", victims.LoopingSecretArraySender(secret, 0))
	defer victim.Kill()
	spyCtx := sys.NewProcess("spy")
	spy := NewBTBSpy(spyCtx, victims.SecretBranchAddr, m.BPU.BTBEntries, 800)
	if spy.threshold == 0 {
		t.Fatal("spy not calibrated")
	}
	errs := 0
	for _, want := range secret {
		if spy.SpyBit(victim) != want {
			errs++
		}
	}
	rate := float64(errs) / float64(len(secret))
	t.Logf("BTB attack error rate: %.1f%%", 100*rate)
	// The BTB timing channel works but is far noisier than BranchScope:
	// clearly better than guessing, clearly worse than the directional
	// channel.
	if rate > 0.40 {
		t.Errorf("BTB attack error rate %.1f%%: channel not working", 100*rate)
	}
	if rate == 0 {
		t.Error("BTB attack suspiciously perfect; timing noise not modelled?")
	}
}

func TestBTBSpyDefeatedByFlushDefense(t *testing.T) {
	m := uarch.Skylake()
	sys := sched.NewSystem(m, 71)
	secret := rng.New(19).Bits(300)
	victim := sys.Spawn("victim", victims.LoopingSecretArraySender(secret, 0))
	defer victim.Kill()
	spyCtx := sys.NewProcess("spy")
	spy := NewBTBSpy(spyCtx, victims.SecretBranchAddr, m.BPU.BTBEntries, 800)
	spy.FlushDefense = true
	errs := 0
	for _, want := range secret {
		if spy.SpyBit(victim) != want {
			errs++
		}
	}
	rate := float64(errs) / float64(len(secret))
	t.Logf("BTB attack error rate under flush defense: %.1f%%", 100*rate)
	if rate < 0.35 {
		t.Errorf("flush defense did not degrade the BTB attack (%.1f%%)", 100*rate)
	}
}

func TestMontgomeryResultString(t *testing.T) {
	r := MontgomeryResult{Recovered: big.NewInt(5), BitErrors: 1, Bits: 10}
	if r.String() == "" {
		t.Error("empty String")
	}
	if (MontgomeryResult{}).ErrorRate() != 0 {
		t.Error("empty result error rate != 0")
	}
	if (JPEGResult{}).ErrorRate() != 0 {
		t.Error("empty result error rate != 0")
	}
	if (ASLRResult{}).String() == "" {
		t.Error("empty String")
	}
}

var _ = cpu.Instructions // keep the import for helper expansion

func TestPoisonerForcesVictimMispredictions(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 81)
	const addr = 0x0047_1100
	// The victim's branch is heavily biased taken (a loop back-edge);
	// without interference it predicts near-perfectly.
	victim := sys.Spawn("victim", func(ctx *cpu.Context) {
		for {
			ctx.Work(4)
			ctx.Branch(addr, true)
		}
	})
	defer victim.Kill()

	spy := sys.NewProcess("spy")
	p, err := NewPoisoner(spy, rng.New(5), addr)
	if err != nil {
		t.Fatalf("NewPoisoner: %v", err)
	}

	// Baseline: let the victim run; after warmup its branch must be
	// predicted essentially always.
	victim.StepBranches(20)
	base := victim.Context().ReadPMC(cpu.BranchMisses)
	victim.StepBranches(50)
	baseline := victim.Context().ReadPMC(cpu.BranchMisses) - base
	if baseline > 2 {
		t.Fatalf("unpoisoned victim mispredicted %d/50", baseline)
	}

	// Poisoned: prime the entry not-taken before every victim branch.
	before := victim.Context().ReadPMC(cpu.BranchMisses)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		p.Poison(false)
		victim.StepBranches(1)
	}
	missed := victim.Context().ReadPMC(cpu.BranchMisses) - before
	if missed < rounds*9/10 {
		t.Errorf("poisoning forced only %d/%d mispredictions", missed, rounds)
	}

	// And the other direction: poisoning toward the victim's actual
	// bias must leave it predicted.
	before = victim.Context().ReadPMC(cpu.BranchMisses)
	for i := 0; i < rounds; i++ {
		p.Poison(true)
		victim.StepBranches(1)
	}
	missed = victim.Context().ReadPMC(cpu.BranchMisses) - before
	if missed > rounds/10 {
		t.Errorf("aligned poisoning still caused %d/%d mispredictions", missed, rounds)
	}
}

func TestRecoverSlidingWindowSkeleton(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 91)
	exp := new(big.Int).SetUint64(0xfedc_ba98_7654_3210)
	exp.Lsh(exp, 64)
	exp.Or(exp, new(big.Int).SetUint64(0x0fed_cba9_8765_4321))
	res, err := RecoverSlidingWindowSkeleton(sys, exp, 400, 3, 7)
	if err != nil {
		t.Fatalf("RecoverSlidingWindowSkeleton: %v", err)
	}
	t.Log(res)
	// The skeleton must pin a substantial fraction of the key directly
	// (zeros + window endpoints) ...
	if res.KnownFraction() < 0.35 {
		t.Errorf("only %.1f%% of bits pinned", 100*res.KnownFraction())
	}
	// ... and essentially all pinned bits must be correct.
	if res.KnownBits > 0 && float64(res.WrongBits)/float64(res.KnownBits) > 0.05 {
		t.Errorf("%d/%d pinned bits wrong", res.WrongBits, res.KnownBits)
	}
	// Sanity on the result shape.
	if res.Steps == 0 || res.TotalBits != exp.BitLen() {
		t.Errorf("bad result shape: %+v", res)
	}
	if res.String() == "" {
		t.Error("empty String")
	}
}

func TestSlidingWindowKnownFractionEmpty(t *testing.T) {
	if (SlidingWindowResult{}).KnownFraction() != 0 {
		t.Error("empty KnownFraction != 0")
	}
}

func TestRecoverJPEGStructureMulti(t *testing.T) {
	for _, tc := range []struct {
		model   uarch.Model
		allowST bool
	}{
		{uarch.Haswell(), true},
		{uarch.Skylake(), false},
	} {
		t.Run(tc.model.Name, func(t *testing.T) {
			sys := sched.NewSystem(tc.model, 43)
			r := rng.New(15)
			blocks := make([]victims.Block, 5)
			for i := range blocks {
				blocks[i][0][0] = int32(r.Intn(100))
				for k := 0; k < 3; k++ {
					blocks[i][r.Intn(8)][r.Intn(8)] = int32(r.Intn(20) - 10)
				}
			}
			res, err := RecoverJPEGStructureMulti(sys, blocks, tc.allowST, 5)
			if err != nil {
				t.Fatalf("RecoverJPEGStructureMulti: %v", err)
			}
			t.Log(res)
			if res.ErrorRate() > 0.06 {
				t.Errorf("branch error rate %.2f%% too high", 100*res.ErrorRate())
			}
		})
	}
}
