package branchscope_test

import (
	"context"
	"math/big"
	"testing"

	"branchscope"
	"branchscope/internal/victims"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow end
// to end through the public surface only.
func TestPublicAPIQuickstart(t *testing.T) {
	sys := branchscope.NewSystem(branchscope.Skylake(), 42)
	secret := branchscope.NewRand(9).Bits(120)
	victim := sys.Spawn("victim", branchscope.LoopingSecretArraySender(secret, 0))
	defer victim.Kill()
	spy := sys.NewProcess("spy")
	sess, err := branchscope.NewSession(spy, branchscope.NewRand(1), branchscope.AttackConfig{
		Search: branchscope.SearchConfig{TargetAddr: branchscope.SecretBranchAddr, Focused: true},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	errs := 0
	for _, want := range secret {
		if sess.SpyBit(victim, nil, nil) != want {
			errs++
		}
	}
	if errs > len(secret)/20 {
		t.Errorf("quickstart error rate too high: %d/%d", errs, len(secret))
	}
}

func TestPublicAPIModels(t *testing.T) {
	if len(branchscope.Models()) != 3 {
		t.Error("expected three CPU models")
	}
	m, err := branchscope.ModelByName("Haswell")
	if err != nil || m.Name != "Haswell" {
		t.Errorf("ModelByName: %v %v", m.Name, err)
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	exps := branchscope.Experiments()
	if len(exps) < 14 {
		t.Errorf("registry has %d experiments, want >= 14", len(exps))
	}
	e, err := branchscope.ExperimentByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), branchscope.RunConfig{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Error("empty experiment output")
	}
	if len(res.Rows()) == 0 {
		t.Error("experiment returned no structured rows")
	}
}

func TestPublicAPIMontgomery(t *testing.T) {
	sys := branchscope.NewSystem(branchscope.Skylake(), 7)
	exp := new(big.Int).SetUint64(0xfeed_beef)
	res, err := branchscope.RecoverMontgomeryExponent(sys, exp, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate() > 0.05 {
		t.Errorf("error rate %.2f%%", 100*res.ErrorRate())
	}
}

func TestPublicAPIEnclave(t *testing.T) {
	sys := branchscope.NewSystem(branchscope.Skylake(), 3)
	ran := false
	e := branchscope.LaunchEnclave(sys, "t", func(ctx *branchscope.Context) {
		ctx.Branch(0x100, true)
		ran = true
	})
	for e.StepBranches(1) {
	}
	if !ran {
		t.Error("enclave did not run")
	}
}

func TestPublicAPIMapper(t *testing.T) {
	sys := branchscope.NewSystem(branchscope.SandyBridge(), 5)
	spy := sys.NewProcess("spy")
	m := branchscope.NewMapper(sys, spy, branchscope.NewRand(11))
	states := m.MapStates(0x300000, 4*4096, 3000)
	size, _ := branchscope.DiscoverPHTSize(states, nil, 50, branchscope.NewRand(12))
	if size != 4096 {
		t.Errorf("discovered %d, want 4096", size)
	}
}

func TestPublicAPIDemosAndHelpers(t *testing.T) {
	if r, err := branchscope.RunPoisoningDemo(context.Background(), 60, 3); err != nil || r.PoisonedMissRate < 0.9 {
		t.Errorf("poisoning demo miss rate %.2f (err %v)", r.PoisonedMissRate, err)
	}
	if r, err := branchscope.RunDetectionDemo(context.Background(), 60, 3); err != nil || len(r.Workloads) != 4 {
		t.Errorf("detection demo rows = %d (err %v)", len(r.Workloads), err)
	}
	if !branchscope.DecodeBit("MH") || branchscope.DecodeBit("MM") {
		t.Error("DecodeBit re-export broken")
	}
	sys := branchscope.NewSystem(branchscope.Haswell(), 1)
	ctx := sys.NewProcess("p")
	if pat := branchscope.ProbePMC(ctx, 0x100, true); len(pat) != 2 {
		t.Errorf("ProbePMC pattern %q", pat)
	}
	if s := branchscope.ProbeTSC(ctx, 0x100, true); s.First == 0 || s.Second == 0 {
		t.Errorf("ProbeTSC sample %+v", s)
	}
	exp := new(big.Int).SetUint64(0xabcd)
	if got := branchscope.MontgomeryLadder(ctx, big.NewInt(2), exp, big.NewInt(101)); got == nil {
		t.Error("MontgomeryLadder nil")
	}
	if branchscope.LadderBranchAddr == 0 || branchscope.SecretBranchAddr == 0 {
		t.Error("zero branch addresses")
	}
}

func TestPublicAPIAttackHelpers(t *testing.T) {
	// JPEG structure recovery through the public surface.
	sys := branchscope.NewSystem(branchscope.Haswell(), 9)
	blocks := makeBlocks(3)
	res, err := branchscope.RecoverJPEGStructure(sys, blocks, 2)
	if err != nil || res.ErrorRate() > 0.05 {
		t.Errorf("RecoverJPEGStructure: %v err=%v", res, err)
	}
	// ASLR scan through the public surface.
	sys2 := branchscope.NewSystem(branchscope.Skylake(), 10)
	offsets := []uint64{0x6d0, 0xc9a0, 0x8b30, 0x47c0}
	const base = 0x0055_4000_0000
	slide := uint64(base + 21<<12)
	victim := sys2.Spawn("v", multiBranchVictim(slide, offsets))
	defer victim.Kill()
	var slides []uint64
	for i := 0; i < 32; i++ {
		slides = append(slides, base+uint64(i)<<12)
	}
	r := branchscope.DerandomizeASLRMulti(sys2, victim, slides, offsets, 7, 4)
	if r.Found != slide {
		t.Errorf("DerandomizeASLRMulti found %#x, want %#x", r.Found, slide)
	}
}

// Local helpers for the public-API tests (the examples build their own
// victims the same way).
func makeBlocks(n int) []victims.Block {
	r := branchscope.NewRand(77)
	blocks := make([]victims.Block, n)
	for i := range blocks {
		blocks[i][0][0] = int32(r.Intn(50))
		blocks[i][int(r.Uint64n(8))][int(r.Uint64n(8))] = int32(r.Intn(9)) - 4
	}
	return blocks
}

func multiBranchVictim(slide uint64, offsets []uint64) func(*branchscope.Context) {
	return victims.MultiBranchASLRProcess(slide, offsets)
}
