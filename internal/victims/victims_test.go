package victims

import (
	"math"
	"math/big"
	"testing"

	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
)

func newSys() *sched.System {
	return sched.NewSystem(uarch.Skylake(), 1)
}

func TestSecretArraySenderBranchStream(t *testing.T) {
	sys := newSys()
	secret := []bool{true, false, true, true, false}
	th := sys.Spawn("v", SecretArraySender(secret, 0))
	// Step one branch at a time and verify the trace ordering via the
	// branch PMC.
	for i := range secret {
		th.StepBranches(1)
		if got := th.Context().ReadPMC(cpu.BranchInstructions); got != uint64(i+1) {
			t.Fatalf("after %d steps: %d branches", i+1, got)
		}
	}
	for th.Step(1 << 16) {
	}
	if got := th.Context().ReadPMC(cpu.BranchInstructions); got != uint64(len(secret)) {
		t.Errorf("total branches = %d, want %d", got, len(secret))
	}
}

func TestLoopingSenderWraps(t *testing.T) {
	sys := newSys()
	secret := []bool{true, false}
	th := sys.Spawn("v", LoopingSecretArraySender(secret, 0))
	defer th.Kill()
	if !th.StepBranches(7) {
		t.Fatal("looping sender finished")
	}
	if got := th.Context().ReadPMC(cpu.BranchInstructions); got != 7 {
		t.Errorf("branches = %d", got)
	}
}

func TestMontgomeryLadderComputesModExp(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	base := big.NewInt(7)
	m := big.NewInt(1000003)
	for _, e := range []int64{1, 2, 3, 17, 1023, 65537, 999999} {
		exp := big.NewInt(e)
		got := MontgomeryLadder(ctx, base, exp, m)
		want := new(big.Int).Exp(base, exp, m)
		if got.Cmp(want) != 0 {
			t.Errorf("7^%d mod 1000003 = %v, want %v", e, got, want)
		}
	}
}

func TestMontgomeryLadderLargeOperands(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	r := rng.New(11)
	base := new(big.Int).SetUint64(r.Uint64())
	exp := new(big.Int).SetUint64(r.Uint64() | 1<<63)
	m := new(big.Int).SetUint64(r.Uint64() | 1)
	got := MontgomeryLadder(ctx, base, exp, m)
	want := new(big.Int).Exp(base, exp, m)
	if got.Cmp(want) != 0 {
		t.Errorf("large modexp mismatch: %v vs %v", got, want)
	}
}

func TestMontgomeryLadderZeroExponent(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	got := MontgomeryLadder(ctx, big.NewInt(5), big.NewInt(0), big.NewInt(13))
	if got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("x^0 = %v, want 1", got)
	}
}

func TestMontgomeryLadderZeroModulusPanics(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero modulus")
		}
	}()
	MontgomeryLadder(ctx, big.NewInt(5), big.NewInt(3), big.NewInt(0))
}

func TestMontgomeryBranchPerBit(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	exp := big.NewInt(0b1011011) // 7 bits -> 6 ladder branches
	MontgomeryLadder(ctx, big.NewInt(3), exp, big.NewInt(101))
	if got := ctx.ReadPMC(cpu.BranchInstructions); got != 6 {
		t.Errorf("ladder executed %d branches, want 6", got)
	}
}

func TestExponentBitsRoundTrip(t *testing.T) {
	for _, e := range []uint64{1, 2, 5, 0b1011011, 1 << 40, 0xdeadbeef} {
		exp := new(big.Int).SetUint64(e)
		bits := ExponentBits(exp)
		if len(bits) != exp.BitLen()-1 {
			t.Errorf("ExponentBits(%#x) len = %d, want %d", e, len(bits), exp.BitLen()-1)
		}
		back := BitsToExponent(bits)
		if back.Cmp(exp) != 0 {
			t.Errorf("round trip %#x -> %v", e, back)
		}
	}
	if got := ExponentBits(big.NewInt(0)); got != nil {
		t.Errorf("ExponentBits(0) = %v", got)
	}
}

func TestIDCTRoundTrip(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	// Build a spatial block, forward-transform it, and check that the
	// victim's IDCT inverts it (within rounding of the integer
	// coefficients).
	var px [8][8]float64
	r := rng.New(4)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			px[i][j] = float64(r.Intn(255)) - 128
		}
	}
	coeff := FDCT(&px)
	got := IDCT(ctx, coeff)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if d := math.Abs(got[i][j] - px[i][j]); d > 1.0 {
				t.Fatalf("IDCT(FDCT(px))[%d][%d] off by %.2f", i, j, d)
			}
		}
	}
}

func TestIDCTShortcutMatchesFullTransform(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	// A DC-only block must decode to a constant plane whether or not
	// the shortcut fires — and the shortcut must fire.
	var b Block
	b[0][0] = 80
	out := IDCT(ctx, &b)
	want := out[0][0]
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if math.Abs(out[i][j]-want) > 1e-9 {
				t.Fatalf("DC-only block not constant at [%d][%d]", i, j)
			}
		}
	}
	if math.Abs(want-80.0/8) > 1e-9 { // orthonormal: DC/ (2√2 * 2√2) = DC/8
		t.Errorf("DC plane level = %v, want 10", want)
	}
}

func TestIDCTBranchDirectionsMatchZeroStructure(t *testing.T) {
	sys := newSys()
	var b Block
	b[0][0] = 10
	b[3][5] = -4 // column 5 and row 3 have AC energy
	th := sys.Spawn("v", func(ctx *cpu.Context) { IDCT(ctx, &b) })
	// Column-check branches run first, in order; verify directions by
	// stepping one branch at a time and checking the mispredict PMC
	// never observes extra branches.
	for c := 0; c < 8; c++ {
		th.StepBranches(1)
		wantZero := c != 5
		if got := b.ColumnACZero(c); got != wantZero {
			t.Fatalf("ground truth broken for column %d", c)
		}
	}
	for r := 0; r < 8; r++ {
		th.StepBranches(1)
		wantZero := r != 3
		if got := b.RowACZero(r); got != wantZero {
			t.Fatalf("ground truth broken for row %d", r)
		}
	}
	for th.Step(1 << 16) {
	}
	if got := th.Context().ReadPMC(cpu.BranchInstructions); got != 16 {
		t.Errorf("IDCT executed %d branches, want 16", got)
	}
}

func TestColumnRowAddrsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		for _, a := range []uint64{ColumnCheckAddr(i), RowCheckAddr(i)} {
			if seen[a] {
				t.Fatalf("duplicate check address %#x", a)
			}
			seen[a] = true
		}
	}
}

// TestASLRVictim drives the ASLR victim with a single branch site.
func TestASLRVictim(t *testing.T) {
	sys := newSys()
	const secretAddr = 0x5540_1234
	th := sys.Spawn("v", MultiBranchASLRProcess(0x5540_0000, []uint64{0x1234}))
	defer th.Kill()
	th.StepBranches(3)
	if got := th.Context().ReadPMC(cpu.BranchInstructions); got != 3 {
		t.Errorf("branches = %d", got)
	}
	// The victim's branch is always taken, so after a few executions the
	// shared PHT predicts a spy branch at the same address as taken.
	spy := sys.NewProcess("spy")
	before := spy.ReadPMC(cpu.BranchMisses)
	spy.Branch(secretAddr, true)
	if spy.ReadPMC(cpu.BranchMisses) != before {
		t.Error("spy at secret address mispredicted: no collision")
	}
}

func TestIDCTProcessLoops(t *testing.T) {
	sys := newSys()
	blocks := []Block{{}, {}}
	blocks[0][0][0] = 8
	th := sys.Spawn("v", IDCTProcess(blocks, nil))
	defer th.Kill()
	if !th.StepBranches(40) { // 16 branches per block; loops past the slice
		t.Error("IDCT process finished unexpectedly")
	}
}

func TestBranchlessLadderComputesModExp(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	base := big.NewInt(11)
	m := big.NewInt(999983)
	for _, e := range []int64{1, 2, 3, 17, 1023, 65537, 999999} {
		exp := big.NewInt(e)
		got := MontgomeryLadderBranchless(ctx, base, exp, m)
		want := new(big.Int).Exp(base, exp, m)
		if got.Cmp(want) != 0 {
			t.Errorf("11^%d mod 999983 = %v, want %v", e, got, want)
		}
	}
	if got := MontgomeryLadderBranchless(ctx, base, big.NewInt(0), m); got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("x^0 = %v", got)
	}
}

func TestBranchlessLadderExecutesNoBranches(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	exp := new(big.Int).SetUint64(0xdead_beef_1234_5678)
	MontgomeryLadderBranchless(ctx, big.NewInt(3), exp, big.NewInt(1000003))
	if got := ctx.ReadPMC(cpu.BranchInstructions); got != 0 {
		t.Errorf("if-converted ladder executed %d conditional branches", got)
	}
}

func TestBranchlessLadderZeroModulusPanics(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MontgomeryLadderBranchless(ctx, big.NewInt(5), big.NewInt(3), big.NewInt(0))
}

func TestBranchlessLadderMatchesBranchyLadder(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	r := rng.New(21)
	for i := 0; i < 20; i++ {
		base := new(big.Int).SetUint64(r.Uint64())
		exp := new(big.Int).SetUint64(r.Uint64() | 1)
		m := new(big.Int).SetUint64(r.Uint64() | 1)
		a := MontgomeryLadder(ctx, base, exp, m)
		b := MontgomeryLadderBranchless(ctx, base, exp, m)
		if a.Cmp(b) != 0 {
			t.Fatalf("ladders disagree for %v^%v mod %v: %v vs %v", base, exp, m, a, b)
		}
	}
}

func TestSlidingWindowExpComputesModExp(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	base := big.NewInt(5)
	m := big.NewInt(1000003)
	for _, e := range []int64{1, 2, 3, 15, 16, 17, 255, 1023, 65537, 987654} {
		exp := big.NewInt(e)
		got := SlidingWindowExp(ctx, base, exp, m)
		want := new(big.Int).Exp(base, exp, m)
		if got.Cmp(want) != 0 {
			t.Errorf("5^%d mod 1000003 = %v, want %v", e, got, want)
		}
	}
	if got := SlidingWindowExp(ctx, base, big.NewInt(0), m); got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("x^0 = %v", got)
	}
}

func TestSlidingWindowExpLargeOperands(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	r := rng.New(31)
	for i := 0; i < 10; i++ {
		base := new(big.Int).SetUint64(r.Uint64())
		exp := new(big.Int).SetUint64(r.Uint64() | 1<<63)
		m := new(big.Int).SetUint64(r.Uint64() | 1)
		got := SlidingWindowExp(ctx, base, exp, m)
		want := new(big.Int).Exp(base, exp, m)
		if got.Cmp(want) != 0 {
			t.Fatalf("mismatch for %v^%v mod %v", base, exp, m)
		}
	}
}

func TestSlidingWindowSkeletonConsistency(t *testing.T) {
	sys := newSys()
	r := rng.New(33)
	for trial := 0; trial < 10; trial++ {
		exp := new(big.Int).SetUint64(r.Uint64() | 1<<63)
		zeros, consumed := SlidingWindowSkeleton(exp)
		if len(zeros) != len(consumed) {
			t.Fatal("skeleton length mismatch")
		}
		// Consumed positions must sum to the bit length.
		total := 0
		for i, c := range consumed {
			if zeros[i] && c != 1 {
				t.Fatalf("zero step consumed %d", c)
			}
			if !zeros[i] && (c < 1 || c > SlidingWindowWidth) {
				t.Fatalf("window step consumed %d", c)
			}
			total += c
		}
		if total != exp.BitLen() {
			t.Fatalf("skeleton consumed %d positions of %d", total, exp.BitLen())
		}
		// The branch stream of the real execution must match the skeleton.
		ctx := sys.NewProcess("v")
		before := ctx.ReadPMC(cpu.BranchInstructions)
		SlidingWindowExp(ctx, big.NewInt(3), exp, big.NewInt(1000003))
		if got := ctx.ReadPMC(cpu.BranchInstructions) - before; got != uint64(len(zeros)) {
			t.Fatalf("executed %d scan branches, skeleton has %d", got, len(zeros))
		}
	}
}

func TestSlidingWindowZeroModulusPanics(t *testing.T) {
	sys := newSys()
	ctx := sys.NewProcess("v")
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	SlidingWindowExp(ctx, big.NewInt(2), big.NewInt(5), big.NewInt(0))
}

func TestProcessWrappersLoop(t *testing.T) {
	sys := newSys()
	base, exp, m := big.NewInt(3), big.NewInt(0xbeef), big.NewInt(1000003)

	var outs []*big.Int
	th := sys.Spawn("modexp", MontgomeryProcess(base, exp, m, &outs))
	th.StepBranches(2 * (exp.BitLen() - 1)) // two full exponentiations
	th.Kill()
	want := new(big.Int).Exp(base, exp, m)
	if len(outs) < 1 || outs[0].Cmp(want) != 0 {
		t.Errorf("MontgomeryProcess results %v, want first %v", outs, want)
	}

	var bouts []*big.Int
	bth := sys.Spawn("modexp-ifconv", BranchlessMontgomeryProcess(base, exp, m, &bouts))
	bth.Step(2 * 15 * 810) // instruction-stepped: the branchless ladder has no branches
	bth.Kill()
	if len(bouts) < 1 || bouts[0].Cmp(want) != 0 {
		t.Errorf("BranchlessMontgomeryProcess results %v, want first %v", bouts, want)
	}

	var souts []*big.Int
	sth := sys.Spawn("sw", SlidingWindowProcess(base, exp, m, &souts))
	zeros, _ := SlidingWindowSkeleton(exp)
	sth.StepBranches(2 * len(zeros))
	sth.Kill()
	if len(souts) < 1 || souts[0].Cmp(want) != 0 {
		t.Errorf("SlidingWindowProcess results %v, want first %v", souts, want)
	}
}

func TestPacedSenderFixedRate(t *testing.T) {
	sys := newSys()
	secret := []bool{true, false, true}
	th := sys.Spawn("paced", PacedSender(secret, 0, 4))
	defer th.Kill()
	// Every PacedIteration instructions contains exactly one branch,
	// regardless of the bit value.
	for i := 0; i < 9; i++ {
		th.Step(PacedIteration)
		if got := th.Context().ReadPMC(cpu.BranchInstructions); got != uint64(i+1) {
			t.Fatalf("after %d iterations: %d branches", i+1, got)
		}
	}
	// Degenerate repeats fall back to 1.
	th2 := sys.Spawn("paced2", PacedSender(secret, 0, 0))
	defer th2.Kill()
	th2.Step(PacedIteration)
	if got := th2.Context().ReadPMC(cpu.BranchInstructions); got != 1 {
		t.Errorf("repeats=0 sender executed %d branches per iteration", got)
	}
}

func TestMultiBranchASLRProcessExecutesAllOffsets(t *testing.T) {
	sys := newSys()
	offsets := []uint64{0x100, 0x200, 0x300}
	th := sys.Spawn("aslr", MultiBranchASLRProcess(0x7000_0000, offsets))
	defer th.Kill()
	th.StepBranches(6) // two full rounds
	if got := th.Context().ReadPMC(cpu.BranchInstructions); got != 6 {
		t.Errorf("branches = %d", got)
	}
	// All offsets' branches trained taken: a spy collides at each.
	spy := sys.NewProcess("spy")
	for _, off := range offsets {
		before := spy.ReadPMC(cpu.BranchMisses)
		spy.Branch(0x7000_0000+off, true)
		if spy.ReadPMC(cpu.BranchMisses) != before {
			t.Errorf("no collision at offset %#x", off)
		}
	}
}

// FDCT computes the forward 8×8 DCT of spatial samples, to round-trip
// the victim's transform.
func FDCT(px *[8][8]float64) *Block {
	var freq [8][8]float64
	// Column pass then row pass of the 1-D forward transform.
	for c := 0; c < 8; c++ {
		var col [8]float64
		for r := 0; r < 8; r++ {
			col[r] = px[r][c]
		}
		out := fdct1D(col)
		for r := 0; r < 8; r++ {
			freq[r][c] = out[r]
		}
	}
	var b Block
	for r := 0; r < 8; r++ {
		out := fdct1D(freq[r])
		for c := 0; c < 8; c++ {
			b[r][c] = int32(math.Round(out[c]))
		}
	}
	return &b
}

func fdct1D(in [8]float64) [8]float64 {
	var out [8]float64
	for u := 0; u < 8; u++ {
		cu := 1.0
		if u == 0 {
			cu = 1 / math.Sqrt2
		}
		sum := 0.0
		for x := 0; x < 8; x++ {
			sum += in[x] * math.Cos((2*float64(x)+1)*float64(u)*math.Pi/16)
		}
		out[u] = cu * sum / 2
	}
	return out
}
