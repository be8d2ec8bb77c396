package detect

import (
	"math/big"
	"testing"

	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

func TestDetectsRandomizationBlocks(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	spy := sys.NewProcess("spy")
	m := Attach(spy, Config{})
	// The attacker's priming workload: repeated randomization blocks.
	block := core.GenerateBlock(rng.New(2), 0x6100_0000, 2000)
	for i := 0; i < 5; i++ {
		block.Run(spy)
	}
	if !m.Detected() {
		t.Errorf("attack workload not detected: %s", m)
	}
	w, s := m.Stats()
	if s*2 < w {
		t.Errorf("only %d/%d windows suspicious for pure attack code", s, w)
	}
}

func TestDetectsFullAttackSession(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 2)
	secret := rng.New(3).Bits(100)
	victim := sys.Spawn("victim", victims.LoopingSecretArraySender(secret, 0))
	defer victim.Kill()
	spy := sys.NewProcess("spy")
	mon := Attach(spy, Config{})
	sess, err := core.NewSession(spy, rng.New(4), core.AttackConfig{
		Search: core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for range secret {
		sess.SpyBit(victim, nil, nil)
	}
	if !mon.Detected() {
		t.Errorf("full attack session not detected: %s", mon)
	}
}

func TestBenignMontgomeryNotFlagged(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 3)
	ctx := sys.NewProcess("service")
	m := Attach(ctx, Config{})
	// A busy cryptographic service: unpredictable branch directions but
	// diluted by real work — the realistic "hard case" benign load.
	e := rng.New(5)
	for i := 0; i < 20; i++ {
		exp := new(big.Int).SetUint64(e.Uint64() | 1<<63)
		mod := new(big.Int).SetUint64(e.Uint64() | 1)
		victims.MontgomeryLadder(ctx, big.NewInt(3), exp, mod)
	}
	if m.Detected() {
		t.Errorf("benign modexp service flagged: %s", m)
	}
}

func TestBenignIDCTNotFlagged(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 4)
	ctx := sys.NewProcess("decoder")
	m := Attach(ctx, Config{})
	var b victims.Block
	b[0][0] = 60
	b[3][4] = -7
	for i := 0; i < 200; i++ {
		victims.IDCT(ctx, &b)
	}
	if m.Detected() {
		t.Errorf("benign decoder flagged: %s", m)
	}
}

func TestDenseRandomBranchesAreIndistinguishable(t *testing.T) {
	// The documented limitation: a process that just executes dense
	// random branches has the attack's footprint.
	sys := sched.NewSystem(uarch.Skylake(), 5)
	ctx := sys.NewProcess("fuzzer")
	m := Attach(ctx, Config{})
	r := rng.New(6)
	for i := 0; i < 5000; i++ {
		ctx.Branch(0x9000+r.Uint64n(1<<16), r.Bool())
	}
	if !m.Detected() {
		t.Error("dense random branches evaded the detector; the footprint metric regressed")
	}
}

func TestMonitorComposesWithScheduler(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 7)
	block := core.GenerateBlock(rng.New(8), 0x6100_0000, 3000)
	th := sys.Spawn("spyproc", func(ctx *cpu.Context) {
		block.Run(ctx)
	})
	mon := Attach(th.Context(), Config{})
	for th.Step(1 << 16) {
	}
	if !mon.Detected() {
		t.Errorf("stepped attack thread not detected: %s", mon)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.WindowInstructions <= 0 || c.AllocDensity <= 0 || c.ConsecutiveWindows <= 0 {
		t.Errorf("bad defaults: %+v", c)
	}
}
