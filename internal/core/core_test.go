package core

import (
	"strings"
	"testing"
	"testing/quick"

	"branchscope/internal/cpu"
	"branchscope/internal/fsm"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
)

func TestPatternHelpers(t *testing.T) {
	if got := MakePattern(true, false); got != PatternMH {
		t.Errorf("MakePattern(miss,hit) = %s", got)
	}
	if got := MakePattern(false, true); got != PatternHM {
		t.Errorf("MakePattern(hit,miss) = %s", got)
	}
	if got := MakePattern(false, false); got != PatternHH {
		t.Errorf("MakePattern(hit,hit) = %s", got)
	}
	if got := MakePattern(true, true); got != PatternMM {
		t.Errorf("MakePattern(miss,miss) = %s", got)
	}
	for _, p := range []Pattern{PatternHH, PatternHM, PatternMH, PatternMM} {
		if !p.Valid() {
			t.Errorf("%s not Valid", p)
		}
	}
	if Pattern("XX").Valid() || Pattern("M").Valid() {
		t.Error("invalid pattern accepted")
	}
}

// TestPatternMode pins the block analyses' dominant-pattern rule: the
// most frequent pattern and its share, and among equally frequent
// patterns the first one in the input.
func TestPatternMode(t *testing.T) {
	for _, tc := range []struct {
		pats  []Pattern
		want  Pattern
		share float64
	}{
		{[]Pattern{PatternMM, PatternMH, PatternMM, PatternMM, PatternHH}, PatternMM, 0.6},
		{[]Pattern{PatternMH, PatternHH, PatternMH, PatternHH, PatternMM}, PatternMH, 0.4},
		{[]Pattern{PatternHH, PatternMH, PatternMH, PatternHH, PatternMM}, PatternHH, 0.4},
		{[]Pattern{PatternMM, PatternHH, PatternMH, PatternHM}, PatternMM, 0.25},
		{[]Pattern{PatternHM, PatternMM, PatternHH, PatternMH, PatternMH, PatternHM, PatternHH}, PatternHM, 2.0 / 7},
		{nil, "", 0},
	} {
		if p, share := patternMode(tc.pats); p != tc.want || share != tc.share {
			t.Errorf("patternMode(%v) = %q %v, want %q %v", tc.pats, p, share, tc.want, tc.share)
		}
	}
}

func TestDecodeStateDictionary(t *testing.T) {
	cases := []struct {
		tt, nn Pattern
		want   StateClass
	}{
		{PatternHH, PatternMM, StateST},
		{PatternHH, PatternMH, StateWT},
		{PatternMH, PatternHH, StateWN},
		{PatternMM, PatternHH, StateSN},
		{PatternHH, PatternHH, StateDirty},
		{PatternMM, PatternMM, StateUnknown},
		{PatternHM, PatternMH, StateUnknown},
	}
	for _, c := range cases {
		if got := DecodeState(c.tt, c.nn); got != c.want {
			t.Errorf("DecodeState(%s, %s) = %v, want %v", c.tt, c.nn, got, c.want)
		}
	}
}

func TestDecodeBitDictionary(t *testing.T) {
	// Figure 6: MM, HM -> 0; MH, HH -> 1.
	if DecodeBit(PatternMM) || DecodeBit(PatternHM) {
		t.Error("MM/HM decoded as taken")
	}
	if !DecodeBit(PatternMH) || !DecodeBit(PatternHH) {
		t.Error("MH/HH decoded as not-taken")
	}
}

func TestStateClassStrings(t *testing.T) {
	for _, s := range AllStateClasses() {
		if s.String() == "" {
			t.Error("empty StateClass string")
		}
	}
	if StateClass(42).String() == "" {
		t.Error("empty unknown StateClass string")
	}
	if len(AllStateClasses()) != 6 {
		t.Error("AllStateClasses size")
	}
}

func newSpy(t *testing.T, m uarch.Model, seed uint64) (*sched.System, *cpu.Context) {
	t.Helper()
	sys := sched.NewSystem(m, seed)
	return sys, sys.NewProcess("spy")
}

func TestGenerateBlockDeterministicLayout(t *testing.T) {
	b1 := GenerateBlock(rng.New(5), 0x6100_0000, 500)
	b2 := GenerateBlock(rng.New(5), 0x6100_0000, 500)
	if b1.Len() != 500 || b2.Len() != 500 {
		t.Fatalf("Len = %d/%d", b1.Len(), b2.Len())
	}
	if b1.Span() != b2.Span() {
		t.Error("same seed produced different layouts")
	}
	// NOP insertion means the span exceeds 2 bytes/branch but stays
	// below 3.
	if b1.Span() < 1000 || b1.Span() > 1500 {
		t.Errorf("span = %d for 500 branches", b1.Span())
	}
	if b1.String() == "" {
		t.Error("empty String")
	}
}

func TestGenerateBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	GenerateBlock(rng.New(1), 0, 0)
}

func TestGenerateFocusedBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	GenerateFocusedBlock(rng.New(1), 0, -1, 0x100)
}

func TestBlockRunIsReplayable(t *testing.T) {
	sys, spy := newSpy(t, uarch.Skylake(), 1)
	b := GenerateBlock(rng.New(9), 0x6100_0000, 300)
	b.Run(spy)
	n1 := spy.ReadPMC(cpu.BranchInstructions)
	b.Run(spy)
	n2 := spy.ReadPMC(cpu.BranchInstructions)
	if n1 != 300 || n2 != 600 {
		t.Errorf("branch counts %d/%d", n1, n2)
	}
	_ = sys
}

func TestFocusedBlockEvictsTargetTag(t *testing.T) {
	_, spy := newSpy(t, uarch.Skylake(), 2)
	const target = 0x0040_06d0
	// allocates executes the target once and reports whether it missed
	// the seen-branch tracker, i.e. had no live tag.
	allocates := func() bool {
		before := spy.ReadPMC(cpu.BranchAllocations)
		spy.Branch(target, true)
		return spy.ReadPMC(cpu.BranchAllocations) != before
	}
	// Victim-like execution creates the tag.
	spy.Branch(target, true)
	if allocates() {
		t.Fatal("tag not created")
	}
	b := GenerateFocusedBlock(rng.New(3), 0x6100_0000, 96, target)
	b.Run(spy)
	if !allocates() {
		t.Error("focused block failed to evict the target's tag")
	}
}

func TestProbePMCReflectsPrediction(t *testing.T) {
	_, spy := newSpy(t, uarch.Haswell(), 3)
	const addr = 0x7000
	// Train strongly taken; probing taken twice must be HH.
	for i := 0; i < 4; i++ {
		spy.Branch(addr, true)
	}
	if got := ProbePMC(spy, addr, true); got != PatternHH {
		t.Errorf("probe TT from ST = %s, want HH", got)
	}
	// Re-train and probe not-taken twice: MM (textbook ST -> WT).
	for i := 0; i < 4; i++ {
		spy.Branch(addr, true)
	}
	if got := ProbePMC(spy, addr, false); got != PatternMM {
		t.Errorf("probe NN from ST = %s, want MM", got)
	}
}

func TestProbeTSCLatenciesOrdered(t *testing.T) {
	_, spy := newSpy(t, uarch.Skylake(), 4)
	const addr = 0x8000
	// Averages over repetitions: misses must cost more than hits.
	var hitSum, missSum uint64
	const reps = 300
	for i := 0; i < reps; i++ {
		a := addr + uint64(i)*64
		for j := 0; j < 4; j++ {
			spy.Branch(a+aliasOffset, true)
		}
		spy.Branch(a, true) // warm code
		s := ProbeTSC(spy, a, true)
		hitSum += s.First + s.Second

		a += 32 // separate line
		for j := 0; j < 4; j++ {
			spy.Branch(a+aliasOffset, false)
		}
		spy.Branch(a, true) // warm code; miss
		s = ProbeTSC(spy, a, true)
		missSum += s.First + s.Second
	}
	if missSum <= hitSum {
		t.Errorf("miss latency total %d not greater than hit total %d", missSum, hitSum)
	}
}

// aliasOffset matches the focused-block alias stride.
const aliasOffset = uint64(1) << 30

func TestAnalyzeBlockStability(t *testing.T) {
	_, spy := newSpy(t, uarch.Skylake(), 5)
	cfg := SearchConfig{TargetAddr: 0x0040_06d0, Focused: true, Reps: 60}
	r := rng.New(6)
	// Analyze a handful of focused blocks: each must produce legal
	// frequencies and a decodable or unknown state.
	for i := 0; i < 10; i++ {
		b := GenerateFocusedBlock(r, 0x6100_0000, 96, cfg.TargetAddr)
		a := AnalyzeBlock(spy, b, cfg)
		if a.FreqTT < 0 || a.FreqTT > 1 || a.FreqNN < 0 || a.FreqNN > 1 {
			t.Fatalf("frequencies out of range: %+v", a)
		}
		if !a.PatTT.Valid() || !a.PatNN.Valid() {
			t.Fatalf("invalid dominant patterns: %+v", a)
		}
		if a.Stable && a.State == StateUnknown {
			t.Fatalf("stable block decoded unknown: %+v", a)
		}
		if !a.Stable && a.State != StateUnknown {
			t.Fatalf("unstable block decoded concrete state: %+v", a)
		}
	}
}

func TestFindBlockReachesDesiredState(t *testing.T) {
	for _, m := range uarch.All() {
		_, spy := newSpy(t, m, 7)
		cfg := SearchConfig{TargetAddr: 0x0040_06d0, Focused: true, Reps: 50}
		block, analysis, err := FindBlock(spy, rng.New(8), cfg, StateSN, 300)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if analysis.State != StateSN || !analysis.Stable {
			t.Errorf("%s: found block with state %v stable=%v", m.Name, analysis.State, analysis.Stable)
		}
		if block.Len() == 0 {
			t.Errorf("%s: empty block", m.Name)
		}
	}
}

func TestFindBlockExhaustsCandidates(t *testing.T) {
	// With one candidate it is overwhelmingly likely the search fails
	// for a specific desired state; the error must name the state.
	_, spy := newSpy(t, uarch.Skylake(), 9)
	cfg := SearchConfig{TargetAddr: 0x0040_06d0, Focused: true, Reps: 20}
	_, _, err := FindBlock(spy, rng.New(1), cfg, StateWN, 1)
	if err == nil {
		t.Skip("single candidate happened to land WN; acceptable")
	}
	if !strings.Contains(err.Error(), "WN") {
		t.Errorf("error %q does not name the desired state", err)
	}
}

func TestNewSessionRequiresTarget(t *testing.T) {
	_, spy := newSpy(t, uarch.Skylake(), 10)
	if _, err := NewSession(spy, rng.New(1), AttackConfig{}); err == nil {
		t.Error("NewSession accepted a zero target address")
	}
}

func TestSessionAccessors(t *testing.T) {
	_, spy := newSpy(t, uarch.Skylake(), 11)
	sess, err := NewSession(spy, rng.New(2), AttackConfig{
		Search: SearchConfig{TargetAddr: 0x0040_06d0, Focused: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Block() == nil || sess.spy != spy {
		t.Error("accessor mismatch")
	}
	if a := AnalyzeBlock(spy, sess.Block(), sess.cfg.Search); a.State != StateSN {
		t.Errorf("session primed state %v, want SN", a.State)
	}
	if sess.Detector() != nil {
		t.Error("PMC session has a timing detector")
	}
}

func TestTimingSessionHasDetector(t *testing.T) {
	_, spy := newSpy(t, uarch.Skylake(), 12)
	sess, err := NewSession(spy, rng.New(3), AttackConfig{
		Search:                SearchConfig{TargetAddr: 0x0040_06d0, Focused: true},
		UseTiming:             true,
		TimingCalibrationReps: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := sess.Detector()
	if d == nil {
		t.Fatal("no detector")
	}
	if d.MissMean <= d.HitMean {
		t.Errorf("calibration inverted: hit %.1f miss %.1f", d.HitMean, d.MissMean)
	}
	if d.Threshold <= uint64(d.HitMean)/2 {
		t.Errorf("threshold %d implausible", d.Threshold)
	}
	if d.String() == "" {
		t.Error("empty detector String")
	}
}

func TestTimingDetectorClassify(t *testing.T) {
	d := &TimingDetector{HitMean: 100, MissMean: 160, Threshold: 130}
	if d.Miss(120) || !d.Miss(140) {
		t.Error("Miss threshold broken")
	}
}

func TestMapperPanicsOnBadCount(t *testing.T) {
	sys, spy := newSpy(t, uarch.SandyBridge(), 13)
	m := NewMapper(sys.Core(), spy, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	m.MapStates(0x300000, 0, 100)
}

func TestHammingRatioPanicsOnBadWindow(t *testing.T) {
	states := make([]StateClass, 64)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	HammingRatio(states, 64, 10, rng.New(1)) // window > len/2
}

func TestHammingRatioPeriodicVector(t *testing.T) {
	// A perfectly periodic vector has ratio 0 at its period and a high
	// ratio at non-periods.
	const period = 16
	base := rng.New(77)
	tile := make([]StateClass, period)
	for i := range tile {
		tile[i] = StateClass(base.Intn(4))
	}
	states := make([]StateClass, 1024)
	for i := range states {
		states[i] = tile[i%period]
	}
	r := rng.New(2)
	if ratio := HammingRatio(states, period, 50, r); ratio != 0 {
		t.Errorf("ratio at period = %v", ratio)
	}
	if ratio := HammingRatio(states, period-1, 50, r); ratio < 0.2 {
		t.Errorf("ratio off period = %v, want high", ratio)
	}
	size, scans := DiscoverPHTSize(states, nil, 50, r)
	if size != period {
		t.Errorf("DiscoverPHTSize = %d, want %d", size, period)
	}
	if len(scans) == 0 {
		t.Error("no scan points")
	}
}

func TestDiscoverPHTSizeLowestWRule(t *testing.T) {
	// Multiples of the period also score 0; the smallest must win.
	const period = 8
	states := make([]StateClass, 512)
	for i := range states {
		states[i] = StateClass(i % period % 3)
	}
	size, _ := DiscoverPHTSize(states, []int{32, 16, 8, 13}, 60, rng.New(3))
	if size != period {
		t.Errorf("lowest-w rule violated: got %d", size)
	}
}

// Property: DecodeState is total over the 16 pattern combinations and
// only the five documented combinations yield a non-Unknown state.
func TestQuickDecodeStateTotal(t *testing.T) {
	pats := []Pattern{PatternHH, PatternHM, PatternMH, PatternMM}
	known := 0
	for _, tt := range pats {
		for _, nn := range pats {
			if DecodeState(tt, nn) != StateUnknown {
				known++
			}
		}
	}
	if known != 5 {
		t.Errorf("%d decodable combinations, want 5", known)
	}
}

// Property: block generation never produces out-of-region contiguous
// sites and Len matches the requested branch count.
func TestQuickBlockGeneration(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		count := int(n%512) + 1
		b := GenerateBlock(rng.New(seed), 0x6100_0000, count)
		if b.Len() != count {
			return false
		}
		return b.Span() >= uint64(2*count) && b.Span() <= uint64(3*count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDecodeBitFromDictionaries(t *testing.T) {
	cases := []struct {
		primed StateClass
		pat    Pattern
		want   bool
	}{
		// Primed SN, probe TT.
		{StateSN, PatternMH, true}, {StateSN, PatternHH, true},
		{StateSN, PatternMM, false}, {StateSN, PatternHM, false},
		// Primed WN, probe TT.
		{StateWN, PatternHH, true}, {StateWN, PatternHM, true},
		{StateWN, PatternMM, false}, {StateWN, PatternMH, false},
		// Primed WT, probe NN.
		{StateWT, PatternMM, true}, {StateWT, PatternMH, true},
		{StateWT, PatternHH, false}, {StateWT, PatternHM, false},
		// Primed ST, probe NN (textbook parts).
		{StateST, PatternMM, true}, {StateST, PatternHM, true},
		{StateST, PatternMH, false}, {StateST, PatternHH, false},
		// Undecodable primes default to not-taken.
		{StateDirty, PatternMM, false}, {StateUnknown, PatternHH, false},
	}
	for _, c := range cases {
		if got := DecodeBitFrom(c.primed, c.pat); got != c.want {
			t.Errorf("DecodeBitFrom(%v, %s) = %v, want %v", c.primed, c.pat, got, c.want)
		}
	}
}

// The per-state dictionaries must agree with the FSM ground truth:
// simulate prime-state -> victim direction -> probe on the bare textbook
// FSM and confirm the decoded direction matches.
func TestDecodeBitFromMatchesFSM(t *testing.T) {
	spec := fsm.Textbook2Bit()
	stateFor := map[StateClass]uint8{
		StateSN: 0, StateWN: 1, StateWT: 2, StateST: 3,
	}
	for primed, st := range stateFor {
		probeTaken := primed == StateSN || primed == StateWN
		for _, victim := range []bool{false, true} {
			s := spec.Next(st, victim)
			m1 := spec.Predict(s) != probeTaken
			s = spec.Next(s, probeTaken)
			m2 := spec.Predict(s) != probeTaken
			pat := MakePattern(m1, m2)
			if got := DecodeBitFrom(primed, pat); got != victim {
				t.Errorf("primed %v, victim %v: pattern %s decoded %v", primed, victim, pat, got)
			}
		}
	}
}

func TestNewMultiSessionRequiresTargets(t *testing.T) {
	_, spy := newSpy(t, uarch.Haswell(), 14)
	if _, err := NewMultiSession(spy, rng.New(1), MultiConfig{}); err == nil {
		t.Error("empty target list accepted")
	}
}

func TestNewMultiSessionExhaustsCandidates(t *testing.T) {
	_, spy := newSpy(t, uarch.Haswell(), 15)
	_, err := NewMultiSession(spy, rng.New(1), MultiConfig{
		Targets:       []uint64{0x1000, 0x2000, 0x3000, 0x4000},
		MaxCandidates: 1,
		Reps:          10,
	})
	if err == nil {
		t.Skip("single candidate happened to stabilize all targets")
	}
	if !strings.Contains(err.Error(), "4 targets") {
		t.Errorf("error %q does not mention the target count", err)
	}
}
