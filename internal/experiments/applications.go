package experiments

import (
	"context"
	"fmt"
	"math/big"
	"strings"

	"branchscope/internal/attacks"
	"branchscope/internal/engine"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/stats"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// This file wraps the §9.2 attack applications and the §11 baseline
// comparison as experiments.

// MontgomeryConfig parameterizes the exponent-recovery experiment.
type MontgomeryConfig struct {
	// ExponentBits is the secret exponent size (a 512-bit exponent by
	// default; the ladder leaks one bit per iteration).
	ExponentBits int
	// Majority is the number of traces voted per bit.
	Majority int
	Model    uarch.Model
	Seed     uint64
}

func (c MontgomeryConfig) withDefaults() MontgomeryConfig {
	if c.ExponentBits == 0 {
		c.ExponentBits = 512
	}
	if c.Majority == 0 {
		c.Majority = 1
	}
	if c.Model.Name == "" {
		c.Model = uarch.Skylake()
	}
	return c
}

// QuickMontgomeryConfig returns a test-scale configuration.
func QuickMontgomeryConfig() MontgomeryConfig { return MontgomeryConfig{ExponentBits: 128} }

// MontgomeryExpResult reports the experiment.
type MontgomeryExpResult struct {
	Config MontgomeryConfig
	Result attacks.MontgomeryResult
	Exact  bool // every bit recovered, exponent reconstructed exactly
}

// RunMontgomery regenerates the Montgomery-ladder attack experiment.
func RunMontgomery(ctx context.Context, cfg MontgomeryConfig) (MontgomeryExpResult, error) {
	cfg = cfg.withDefaults()
	if err := ctx.Err(); err != nil {
		return MontgomeryExpResult{}, fmt.Errorf("experiments: montgomery: %w", err)
	}
	r := rng.New(cfg.Seed + 12)
	exp := new(big.Int).SetBit(big.NewInt(0), cfg.ExponentBits-1, 1)
	for i := 0; i < cfg.ExponentBits-1; i++ {
		if r.Bool() {
			exp.SetBit(exp, i, 1)
		}
	}
	sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
	res, err := attacks.RecoverMontgomeryExponent(sys, exp, cfg.Majority, r.Uint64())
	if err != nil {
		return MontgomeryExpResult{}, fmt.Errorf("experiments: montgomery attack setup: %w", err)
	}
	return MontgomeryExpResult{
		Config: cfg,
		Result: res,
		Exact:  res.Recovered.Cmp(exp) == 0,
	}, nil
}

// String implements fmt.Stringer.
func (r MontgomeryExpResult) String() string {
	exact := "exponent reconstructed exactly"
	if !r.Exact {
		exact = "exponent reconstruction incomplete"
	}
	return fmt.Sprintf("Montgomery ladder attack (%d-bit exponent, %s):\n  %s; %s\n",
		r.Config.ExponentBits, r.Config.Model.Name, r.Result, exact)
}

// Rows implements engine.Result.
func (r MontgomeryExpResult) Rows() []engine.Row {
	return []engine.Row{{
		engine.F("model", r.Config.Model.Name),
		engine.F("exponent_bits", r.Config.ExponentBits),
		engine.F("majority", r.Config.Majority),
		engine.F("bit_errors", r.Result.BitErrors),
		engine.F("exact", r.Exact),
	}}
}

// JPEGConfig parameterizes the IDCT structure-recovery experiment.
type JPEGConfig struct {
	// Blocks is the number of 8×8 coefficient blocks decoded.
	Blocks int
	Model  uarch.Model
	Seed   uint64
}

func (c JPEGConfig) withDefaults() JPEGConfig {
	if c.Blocks == 0 {
		c.Blocks = 24
	}
	if c.Model.Name == "" {
		c.Model = uarch.Skylake()
	}
	return c
}

// QuickJPEGConfig returns a test-scale configuration.
func QuickJPEGConfig() JPEGConfig { return JPEGConfig{Blocks: 6} }

// JPEGExpResult reports the experiment: the per-branch-session recovery
// and the §6.3 single-episode multi-branch variant.
type JPEGExpResult struct {
	Config JPEGConfig
	Result attacks.JPEGResult
	// Multi is the same recovery using one MultiSession over all 16
	// check branches — sixteen directions per randomization-block run.
	Multi attacks.JPEGResult
}

// RunJPEG regenerates the libjpeg attack experiment on synthetic blocks
// with sparse AC energy (typical of compressed natural images), with both
// the per-branch and the single-episode multi-branch spy.
func RunJPEG(ctx context.Context, cfg JPEGConfig) (JPEGExpResult, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed + 13)
	blocks := make([]victims.Block, cfg.Blocks)
	for i := range blocks {
		blocks[i][0][0] = int32(r.Intn(200) - 100)
		for k, n := 0, r.Intn(5); k < n; k++ {
			blocks[i][r.Intn(8)][r.Intn(8)] = int32(r.Intn(40) - 20)
		}
	}
	sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
	res, err := attacks.RecoverJPEGStructure(sys, blocks, r.Uint64())
	if err != nil {
		return JPEGExpResult{}, fmt.Errorf("experiments: jpeg attack setup: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return JPEGExpResult{}, fmt.Errorf("experiments: jpeg: %w", err)
	}
	sys2 := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
	allowST := cfg.Model.BPU.FSM.States == 4 // ST decode is ambiguous on the Skylake FSM
	multi, err := attacks.RecoverJPEGStructureMulti(sys2, blocks, allowST, r.Uint64())
	if err != nil {
		return JPEGExpResult{}, fmt.Errorf("experiments: jpeg multi attack setup: %w", err)
	}
	return JPEGExpResult{Config: cfg, Result: res, Multi: multi}, nil
}

// String implements fmt.Stringer.
func (r JPEGExpResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "libjpeg IDCT attack (%d blocks, %s):\n", r.Config.Blocks, r.Config.Model.Name)
	fmt.Fprintf(&b, "  per-branch sessions:      %s\n", r.Result)
	fmt.Fprintf(&b, "  single-episode multi-spy: %s\n", r.Multi)
	n := 3
	if len(r.Result.Recovered) < n {
		n = len(r.Result.Recovered)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  block %d recovered structure: %s\n", i, r.Result.Recovered[i])
	}
	return b.String()
}

// Rows implements engine.Result.
func (r JPEGExpResult) Rows() []engine.Row {
	return []engine.Row{
		{
			engine.F("spy", "per-branch"),
			engine.F("model", r.Config.Model.Name),
			engine.F("blocks", r.Config.Blocks),
			engine.F("branch_errors", r.Result.BranchErrors),
			engine.F("branches", r.Result.Branches),
			engine.F("error_rate", r.Result.ErrorRate()),
		},
		{
			engine.F("spy", "multi"),
			engine.F("model", r.Config.Model.Name),
			engine.F("blocks", r.Config.Blocks),
			engine.F("branch_errors", r.Multi.BranchErrors),
			engine.F("branches", r.Multi.Branches),
			engine.F("error_rate", r.Multi.ErrorRate()),
		},
	}
}

// ASLRConfig parameterizes the derandomization experiment.
type ASLRConfig struct {
	// Slides is the size of the candidate slide space.
	Slides int
	// Reps is the per-candidate majority vote count.
	Reps  int
	Model uarch.Model
	Seed  uint64
}

func (c ASLRConfig) withDefaults() ASLRConfig {
	if c.Slides == 0 {
		c.Slides = 128
	}
	if c.Reps == 0 {
		c.Reps = 7
	}
	if c.Model.Name == "" {
		c.Model = uarch.Skylake()
	}
	return c
}

// QuickASLRConfig returns a test-scale configuration.
func QuickASLRConfig() ASLRConfig { return ASLRConfig{Slides: 32, Reps: 5} }

// ASLRExpResult reports the experiment.
type ASLRExpResult struct {
	Config ASLRConfig
	// SingleBranch is the collision class found scanning one branch
	// offset; Multi is the final result after the carry-coupled
	// multi-offset intersection.
	SingleBranch attacks.ASLRResult
	Multi        attacks.ASLRResult
	TrueSlide    uint64
	Pinpointed   bool
}

// RunASLR regenerates the derandomization experiment: a page-aligned
// slide is drawn from the candidate space and recovered by collision
// scanning, first with one branch (narrowing to the PHT-index class),
// then with four branch offsets whose carries disambiguate the class.
func RunASLR(ctx context.Context, cfg ASLRConfig) (ASLRExpResult, error) {
	cfg = cfg.withDefaults()
	if err := ctx.Err(); err != nil {
		return ASLRExpResult{}, fmt.Errorf("experiments: aslr: %w", err)
	}
	r := rng.New(cfg.Seed + 14)
	const base = 0x0055_4000_0000
	offsets := []uint64{0x6d0, 0xc9a0, 0x8b30, 0x47c0}
	secret := uint64(r.Intn(cfg.Slides))
	slide := base + secret<<12

	sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
	th := sys.Spawn("victim", victims.MultiBranchASLRProcess(slide, offsets))
	defer th.Kill()

	var slides, singleCands []uint64
	for i := 0; i < cfg.Slides; i++ {
		s := base + uint64(i)<<12
		slides = append(slides, s)
		singleCands = append(singleCands, s+offsets[0])
	}
	single := attacks.DerandomizeASLR(sys, th, singleCands, len(offsets), cfg.Reps, r.Uint64())
	if err := ctx.Err(); err != nil {
		return ASLRExpResult{}, fmt.Errorf("experiments: aslr: %w", err)
	}
	multi := attacks.DerandomizeASLRMulti(sys, th, slides, offsets, cfg.Reps, r.Uint64())
	return ASLRExpResult{
		Config:       cfg,
		SingleBranch: single,
		Multi:        multi,
		TrueSlide:    slide,
		Pinpointed:   multi.Found == slide,
	}, nil
}

// String implements fmt.Stringer.
func (r ASLRExpResult) String() string {
	status := "slide pinpointed exactly"
	if !r.Pinpointed {
		status = fmt.Sprintf("slide NOT pinpointed (found %#x, true %#x)", r.Multi.Found, r.TrueSlide)
	}
	return fmt.Sprintf("ASLR derandomization (%d candidate slides, %s):\n"+
		"  single-branch scan: %d-candidate collision class\n"+
		"  multi-offset scan:  %d survivor(s); %s\n",
		r.Config.Slides, r.Config.Model.Name,
		len(r.SingleBranch.Collisions), len(r.Multi.Collisions), status)
}

// Rows implements engine.Result.
func (r ASLRExpResult) Rows() []engine.Row {
	return []engine.Row{{
		engine.F("model", r.Config.Model.Name),
		engine.F("candidate_slides", r.Config.Slides),
		engine.F("single_branch_collisions", len(r.SingleBranch.Collisions)),
		engine.F("multi_offset_survivors", len(r.Multi.Collisions)),
		engine.F("pinpointed", r.Pinpointed),
	}}
}

// BTBBaselineConfig parameterizes the prior-work comparison.
type BTBBaselineConfig struct {
	Bits  int
	Model uarch.Model
	Seed  uint64
}

func (c BTBBaselineConfig) withDefaults() BTBBaselineConfig {
	if c.Bits == 0 {
		c.Bits = 4000
	}
	if c.Model.Name == "" {
		c.Model = uarch.Skylake()
	}
	return c
}

// QuickBTBBaselineConfig returns a test-scale configuration.
func QuickBTBBaselineConfig() BTBBaselineConfig { return BTBBaselineConfig{Bits: 600} }

// BTBBaselineResult compares the channels.
type BTBBaselineResult struct {
	Config BTBBaselineConfig
	// Error rates for: the BTB eviction attack, the BTB attack under a
	// flush-on-context-switch defense, BranchScope, and BranchScope
	// under the same BTB defense.
	BTBError            float64
	BTBUnderFlush       float64
	BranchScope         float64
	BranchScopeUnderBTB float64
}

// RunBTBBaseline regenerates the §11 comparison: BranchScope versus the
// BTB eviction channel, with and without a BTB-flush defense.
func RunBTBBaseline(ctx context.Context, cfg BTBBaselineConfig) (BTBBaselineResult, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed + 15)
	res := BTBBaselineResult{Config: cfg}

	runBTB := func(flush bool) (float64, error) {
		sys := sched.NewSystem(cfg.Model, r.Uint64())
		secret := r.Bits(cfg.Bits)
		victim := sys.Spawn("victim", victims.LoopingSecretArraySender(secret, 0))
		defer victim.Kill()
		spy := attacks.NewBTBSpy(sys.NewProcess("spy"), victims.SecretBranchAddr,
			cfg.Model.BPU.BTBEntries, 1200)
		spy.FlushDefense = flush
		got := make([]bool, len(secret))
		for i := range secret {
			if i%256 == 0 {
				if err := ctx.Err(); err != nil {
					return 0, fmt.Errorf("experiments: btb baseline: %w", err)
				}
			}
			got[i] = spy.SpyBit(victim)
		}
		return stats.ErrorRate(got, secret), nil
	}
	var err error
	if res.BTBError, err = runBTB(false); err != nil {
		return BTBBaselineResult{}, err
	}
	if res.BTBUnderFlush, err = runBTB(true); err != nil {
		return BTBBaselineResult{}, err
	}

	runBS := func(flush bool) (float64, error) {
		c, err := RunCovert(ctx, CovertConfig{
			Model: cfg.Model, Setting: Isolated, Pattern: RandomBits,
			Bits: cfg.Bits, Runs: 1, Seed: r.Uint64(),
			Prepare: func(sys *sched.System) {
				if flush {
					// Model the flush defense as a periodic kernel task:
					// flush whenever the noise process is scheduled. For
					// BranchScope the BTB contents are irrelevant either
					// way; flushing throughout demonstrates exactly that.
					sys.Core().BPU().FlushBTB()
				}
			},
		})
		if err != nil {
			return 0, fmt.Errorf("btb baseline: %w", err)
		}
		return c.ErrorRate, nil
	}
	if res.BranchScope, err = runBS(false); err != nil {
		return BTBBaselineResult{}, err
	}
	if res.BranchScopeUnderBTB, err = runBS(true); err != nil {
		return BTBBaselineResult{}, err
	}
	return res, nil
}

// String implements fmt.Stringer.
func (r BTBBaselineResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Baseline comparison (%d bits, %s):\n", r.Config.Bits, r.Config.Model.Name)
	fmt.Fprintf(&b, "  %-38s %8s\n", "BTB eviction attack (prior work)", stats.Percent(r.BTBError))
	fmt.Fprintf(&b, "  %-38s %8s\n", "BTB attack + BTB-flush defense", stats.Percent(r.BTBUnderFlush))
	fmt.Fprintf(&b, "  %-38s %8s\n", "BranchScope", stats.Percent(r.BranchScope))
	fmt.Fprintf(&b, "  %-38s %8s\n", "BranchScope + BTB-flush defense", stats.Percent(r.BranchScopeUnderBTB))
	return b.String()
}

// Rows implements engine.Result: one row per channel × defense cell.
func (r BTBBaselineResult) Rows() []engine.Row {
	cell := func(channel string, flush bool, rate float64) engine.Row {
		return engine.Row{
			engine.F("channel", channel),
			engine.F("btb_flush_defense", flush),
			engine.F("error_rate", rate),
		}
	}
	return []engine.Row{
		cell("btb-eviction", false, r.BTBError),
		cell("btb-eviction", true, r.BTBUnderFlush),
		cell("branchscope", false, r.BranchScope),
		cell("branchscope", true, r.BranchScopeUnderBTB),
	}
}
