package experiments

import (
	"context"
	"strings"
	"testing"

	"branchscope/internal/bpu"
	"branchscope/internal/core"
	"branchscope/internal/engine"
	"branchscope/internal/uarch"
)

// runQuick runs experiment id's registry entry at quick scale on seed
// and returns its result as the type the entry's runner returns.
func runQuick[R engine.Result](t *testing.T, id string, seed uint64) R {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), engine.Config{Quick: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := res.(R)
	if !ok {
		t.Fatalf("%s returned %T", id, res)
	}
	return r
}

func TestFig2Shape(t *testing.T) {
	r := runQuick[Fig2Result](t, "fig2", 2)
	if len(r.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(r.Series))
	}
	for _, s := range r.Series {
		// First iteration: near-random (the paper sees ~5/10 misses).
		if s.MeanMisses[0] < 3.5 {
			t.Errorf("%s: first iteration misses %.2f, expected near 5", s.Model, s.MeanMisses[0])
		}
		// Learned by iterations 5-7 per the paper; allow 4-8 in the model.
		h := s.LearningHorizon()
		if h < 4 || h > 8 {
			t.Errorf("%s: learning horizon %d, want 4..8 (paper: 5-7)", s.Model, h)
		}
		// Late iterations: essentially perfect.
		for i := 12; i < len(s.MeanMisses); i++ {
			if s.MeanMisses[i] > 0.3 {
				t.Errorf("%s: iteration %d still misses %.2f", s.Model, i+1, s.MeanMisses[i])
			}
		}
	}
	if !strings.Contains(r.String(), "Figure 2") {
		t.Error("String missing header")
	}
}

func TestTable1AllModelsMatchPaper(t *testing.T) {
	for _, m := range uarch.All() {
		res, err := RunTable1(context.Background(), m, 7)
		if err != nil {
			t.Fatal(err)
		}
		want := PaperTable1(m.Name == "Skylake")
		if len(res.Entries) != len(want) {
			t.Fatalf("%s: %d rows, want %d", m.Name, len(res.Entries), len(want))
		}
		for i, row := range res.Entries {
			if row.Observation != want[i] {
				t.Errorf("%s does not match the paper:\n%s", m.Name, res)
				break
			}
		}
	}
}

func TestTable1SkylakeFootnote(t *testing.T) {
	// The TTT/N/NN row is the Skylake peculiarity: MM there, MH on the
	// textbook parts.
	sl, err := RunTable1(context.Background(), uarch.Skylake(), 1)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := RunTable1(context.Background(), uarch.Haswell(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Entries[3].Observation != core.PatternMM {
		t.Errorf("Skylake TTT/N/NN = %s, want MM", sl.Entries[3].Observation)
	}
	if hw.Entries[3].Observation != core.PatternMH {
		t.Errorf("Haswell TTT/N/NN = %s, want MH", hw.Entries[3].Observation)
	}
}

func TestFig4Distribution(t *testing.T) {
	r := runQuick[Fig4Result](t, "fig4", 3)
	if r.StableShare < 0.55 || r.StableShare > 0.99 {
		t.Errorf("stable share %.2f outside plausible band (paper: 0.83)", r.StableShare)
	}
	strong := r.Distribution[core.StateST] + r.Distribution[core.StateSN]
	weak := r.Distribution[core.StateWT] + r.Distribution[core.StateWN]
	if strong <= weak {
		t.Errorf("strong states (%.2f) not dominant over weak (%.2f)", strong, weak)
	}
	if r.Distribution[core.StateUnknown] == 0 {
		t.Error("no unknown blocks at all; system noise not reflected")
	}
	if len(r.Points) != r.Config.Blocks {
		t.Errorf("points = %d, want %d", len(r.Points), r.Config.Blocks)
	}
}

func TestFig5DiscoversTrueSize(t *testing.T) {
	r := runQuick[Fig5Result](t, "fig5", 5)
	if r.DiscoveredSize != r.TrueSize {
		t.Errorf("discovered %d, true %d", r.DiscoveredSize, r.TrueSize)
	}
	// The ratio at the true size must be far below the off-period
	// ratios (Figure 5b's sharp minimum).
	var atSize, offSize float64
	offN := 0
	for _, s := range r.Scan {
		if s.Window == r.TrueSize {
			atSize = s.Ratio
		} else if s.Window%r.TrueSize != 0 {
			offSize += s.Ratio
			offN++
		}
	}
	if offN == 0 || atSize > 0.2*(offSize/float64(offN)) {
		t.Errorf("minimum not sharp: ratio %.3f at true size vs %.3f mean elsewhere",
			atSize, offSize/float64(offN))
	}
}

func TestFig6Demonstration(t *testing.T) {
	r, err := RunFig6(context.Background(), Fig6Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Decoded) != len(r.Original) || len(r.Patterns) != len(r.Original) {
		t.Fatal("transcript length mismatch")
	}
	if r.Errors > len(r.Original)/2 {
		t.Errorf("demo errors %d/%d: channel not working", r.Errors, len(r.Original))
	}
	out := r.String()
	for _, want := range []string{"Original", "Decoded", "Spy dictionary"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q", want)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	r := runQuick[Table2Result](t, "table2", 22)
	if len(r.Cells) != 6 {
		t.Fatalf("cells = %d, want 6 rows", len(r.Cells))
	}
	byKey := map[string]Table2Row{}
	for _, row := range r.Cells {
		byKey[row.Model+"/"+row.Setting.String()] = row
		for _, rate := range row.Rates {
			if rate > 0.12 {
				t.Errorf("%s %s: error %.2f%% implausibly high", row.Model, row.Setting, 100*rate)
			}
		}
	}
	// Ordering: Sandy Bridge worse than Skylake and Haswell (smaller
	// predictor tables, §7), noisy worse than isolated per model.
	mean := func(r Table2Row) float64 { return (r.Rates[0] + r.Rates[1] + r.Rates[2]) / 3 }
	if mean(byKey["SandyBridge/with noise"]) <= mean(byKey["Skylake/with noise"]) {
		t.Error("SandyBridge not worse than Skylake in the noisy setting")
	}
	if mean(byKey["SandyBridge/with noise"]) <= mean(byKey["Haswell/with noise"]) {
		t.Error("SandyBridge not worse than Haswell in the noisy setting")
	}
	for _, m := range []string{"Skylake", "Haswell", "SandyBridge"} {
		if mean(byKey[m+"/with noise"]) < mean(byKey[m+"/isolated"]) {
			t.Errorf("%s: noisy better than isolated", m)
		}
	}
}

func TestFig7Separation(t *testing.T) {
	r := runQuick[Fig7Result](t, "fig7", 77)
	for _, taken := range []bool{false, true} {
		hit := r.Case(taken, false).Summary.Mean
		miss := r.Case(taken, true).Summary.Mean
		delta := miss - hit
		if delta < 40 || delta > 70 {
			t.Errorf("taken=%v: miss-hit separation %.1f cycles, want ~54", taken, delta)
		}
	}
}

func TestFig8ErrorShrinksWithAveraging(t *testing.T) {
	r := runQuick[Fig8Result](t, "fig8", 88)
	first := r.Points[0]
	last := r.Points[len(r.Points)-1]
	// The paper: 1st measurement 20-30% error, 2nd ~10%, both falling
	// with averaging; 2nd approaches 0 around 10 measurements.
	if first.ErrorFirst < 0.12 || first.ErrorFirst > 0.45 {
		t.Errorf("single 1st-execution error %.2f outside the paper band", first.ErrorFirst)
	}
	if first.ErrorSecond < 0.02 || first.ErrorSecond > 0.2 {
		t.Errorf("single 2nd-execution error %.2f outside the paper band", first.ErrorSecond)
	}
	if first.ErrorSecond >= first.ErrorFirst {
		t.Error("2nd execution not more reliable than 1st")
	}
	if last.ErrorSecond > 0.03 {
		t.Errorf("2nd-execution error %.2f did not approach 0 with averaging", last.ErrorSecond)
	}
	if last.ErrorFirst >= first.ErrorFirst {
		t.Error("1st-execution error did not shrink with averaging")
	}
}

func TestFig9StatesDistinguishable(t *testing.T) {
	r := runQuick[Fig9Result](t, "fig9", 99)
	if len(r.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(r.Cells))
	}
	// Second-measurement means must separate by expected pattern: MM
	// cells slowest, HH fastest, MH in between (its second execution is
	// a hit but the first miss perturbs only measurement 1).
	for _, c := range r.Cells {
		switch c.Expected {
		case core.PatternMM:
			if c.Second.Mean < 160 {
				t.Errorf("%v probe=%v: MM second mean %.1f too low", c.State, c.ProbeTaken, c.Second.Mean)
			}
		case core.PatternHH:
			if c.Second.Mean > 155 {
				t.Errorf("%v probe=%v: HH second mean %.1f too high", c.State, c.ProbeTaken, c.Second.Mean)
			}
		}
	}
}

func TestTable3SGXBeatsUserSpace(t *testing.T) {
	t3 := runQuick[Table3Result](t, "table3", 33)
	if len(t3.Cells) != 2 {
		t.Fatalf("rows = %d", len(t3.Cells))
	}
	var iso, noisy Table2Row
	for _, row := range t3.Cells {
		if row.Setting == Isolated {
			iso = row
		} else {
			noisy = row
		}
	}
	// SGX isolated: the OS suppresses all noise; error must be tiny.
	for _, rate := range iso.Rates {
		if rate > 0.01 {
			t.Errorf("SGX isolated error %.3f%% too high", 100*rate)
		}
	}
	// And not worse than the noisy SGX setting on average.
	mi := (iso.Rates[0] + iso.Rates[1] + iso.Rates[2]) / 3
	mn := (noisy.Rates[0] + noisy.Rates[1] + noisy.Rates[2]) / 3
	if mi > mn {
		t.Errorf("SGX isolated (%.3f) worse than SGX noisy (%.3f)", mi, mn)
	}
}

func TestMitigationsAblation(t *testing.T) {
	r := runQuick[MitigationsResult](t, "mitigations", 10)
	rates := map[bpu.Mitigation]float64{}
	for _, row := range r.Cells {
		rates[row.Mitigation] = row.ErrorRate
	}
	if rates[bpu.MitigationNone] > 0.05 {
		t.Errorf("unmitigated error %.2f%% too high", 100*rates[bpu.MitigationNone])
	}
	for _, m := range []bpu.Mitigation{bpu.MitigationRandomizedIndex,
		bpu.MitigationPartitioned, bpu.MitigationNoPredictSensitive} {
		if rates[m] < 0.35 {
			t.Errorf("%v: error %.2f%%, defense did not close the channel", m, 100*rates[m])
		}
	}
	// Stochastic updates degrade but do not fully close the channel.
	if rates[bpu.MitigationStochasticFSM] < 0.05 || rates[bpu.MitigationStochasticFSM] > 0.45 {
		t.Errorf("stochastic FSM error %.2f%% not intermediate", 100*rates[bpu.MitigationStochasticFSM])
	}
}

func TestMontgomeryExperiment(t *testing.T) {
	r := runQuick[MontgomeryExpResult](t, "montgomery", 11)
	if r.Result.ErrorRate() > 0.02 {
		t.Errorf("bit error rate %.2f%%", 100*r.Result.ErrorRate())
	}
	if r.Result.BitErrors == 0 && !r.Exact {
		t.Error("no bit errors but not exact")
	}
}

func TestJPEGExperiment(t *testing.T) {
	r := runQuick[JPEGExpResult](t, "jpeg", 12)
	if r.Result.ErrorRate() > 0.05 {
		t.Errorf("branch error rate %.2f%%", 100*r.Result.ErrorRate())
	}
}

func TestASLRExperiment(t *testing.T) {
	r := runQuick[ASLRExpResult](t, "aslr", 13)
	if !r.Pinpointed {
		t.Errorf("slide not pinpointed: %s", r.String())
	}
	if len(r.SingleBranch.Collisions) == 0 {
		t.Error("single-branch scan found no collision class")
	}
}

func TestBTBBaselineComparison(t *testing.T) {
	r := runQuick[BTBBaselineResult](t, "btb", 14)
	if r.BTBError <= r.BranchScope {
		t.Errorf("BTB channel (%.2f%%) not worse than BranchScope (%.2f%%)",
			100*r.BTBError, 100*r.BranchScope)
	}
	if r.BTBUnderFlush < 0.35 {
		t.Errorf("BTB flush defense left BTB error at %.2f%%", 100*r.BTBUnderFlush)
	}
	if r.BranchScopeUnderBTB > 0.05 {
		t.Errorf("BTB defense affected BranchScope: %.2f%%", 100*r.BranchScopeUnderBTB)
	}
}

func TestRegistry(t *testing.T) {
	seen, claims := map[string]bool{}, 0
	for _, e := range All() {
		if e.ID == "" || e.Artifact == "" || e.Description == "" || e.Family == "" || e.Run == nil {
			t.Errorf("incomplete experiment: %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		for _, c := range e.Claims {
			if c.Artifact == "" || c.Text == "" || c.check == nil {
				t.Errorf("%s: incomplete claim %+v", e.ID, c)
			}
		}
		claims += len(e.Claims)
	}
	if claims != 17 {
		t.Errorf("registry declares %d claims, want 17", claims)
	}
	if _, err := ByID("fig2"); err != nil {
		t.Errorf("ByID(fig2): %v", err)
	}
	if _, err := ByID("nonesuch"); err == nil {
		t.Error("ByID accepted unknown experiment")
	}
	// A quick registry-driven run exercises the plumbing end to end.
	e, _ := ByID("fig6")
	res, rerr := e.Run(context.Background(), engine.Config{Quick: true, Seed: 3})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if out := res.String(); !strings.Contains(out, "Figure 6") {
		t.Error("registry run produced unexpected output")
	}
}

func TestSettingAndPatternStrings(t *testing.T) {
	if Isolated.String() == "" || Noisy.String() == "" {
		t.Error("empty Setting string")
	}
	for _, p := range []BitPattern{AllZeros, AllOnes, RandomBits} {
		if p.String() == "" {
			t.Error("empty BitPattern string")
		}
	}
}

func TestBitPatternBits(t *testing.T) {
	r := RunFig2 // silence unused in some builds
	_ = r
	ones := AllOnes.Bits(5, nil)
	for _, b := range ones {
		if !b {
			t.Error("AllOnes produced a zero")
		}
	}
	zeros := AllZeros.Bits(5, nil)
	for _, b := range zeros {
		if b {
			t.Error("AllZeros produced a one")
		}
	}
}

func TestIfConversionClosesChannel(t *testing.T) {
	r := runQuick[IfConversionResult](t, "ifconversion", 20)
	if r.BranchyError > 0.02 {
		t.Errorf("baseline ladder recovery error %.2f%%", 100*r.BranchyError)
	}
	if r.BranchlessError < 0.3 {
		t.Errorf("if-converted ladder still leaks: %.2f%% error", 100*r.BranchlessError)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestPoisoningForcesMispredictions(t *testing.T) {
	r := runQuick[PoisoningResult](t, "poisoning", 21)
	if r.BaselineMissRate > 0.05 {
		t.Errorf("baseline miss rate %.2f%%", 100*r.BaselineMissRate)
	}
	if r.PoisonedMissRate < 0.9 {
		t.Errorf("poisoning achieved only %.2f%% miss rate", 100*r.PoisonedMissRate)
	}
	if r.AlignedMissRate > 0.05 {
		t.Errorf("aligned poisoning caused %.2f%% misses", 100*r.AlignedMissRate)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestDetectionSeparatesAttackerFromBenign(t *testing.T) {
	r := runQuick[DetectionResult](t, "detection", 22)
	byName := map[string]DetectionRow{}
	for _, row := range r.Workloads {
		byName[row.Workload] = row
	}
	if !byName["BranchScope spy"].Detected {
		t.Error("attacker not detected")
	}
	if byName["modexp service (benign)"].Detected {
		t.Error("benign modexp flagged")
	}
	if byName["jpeg decoder (benign)"].Detected {
		t.Error("benign decoder flagged")
	}
	if !byName["dense random branches (false positive)"].Detected {
		t.Error("documented false-positive case unexpectedly clean")
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestSlidingWindowRecovery(t *testing.T) {
	r := runQuick[SlidingWindowExpResult](t, "slidingwindow", 23)
	if r.Result.KnownFraction() < 0.4 {
		t.Errorf("only %.1f%% of key bits pinned", 100*r.Result.KnownFraction())
	}
	if r.Result.KnownBits > 0 && float64(r.Result.WrongBits)/float64(r.Result.KnownBits) > 0.05 {
		t.Errorf("%d/%d pinned bits wrong", r.Result.WrongBits, r.Result.KnownBits)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestSMTChannel(t *testing.T) {
	r := runQuick[SMTResult](t, "smt", 24)
	if r.ErrorRate > 0.05 {
		t.Errorf("cross-hyperthread error rate %.2f%%", 100*r.ErrorRate)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestSMTChannelDegradesWithJitter(t *testing.T) {
	// With wild scheduling jitter the coarse channel must degrade but
	// not die (majority voting absorbs most slips).
	low, err := RunSMT(context.Background(), SMTConfig{Bits: 500, SliceJitter: 1, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunSMT(context.Background(), SMTConfig{Bits: 500, SliceJitter: 6, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	if high.ErrorRate < low.ErrorRate {
		t.Logf("note: jitter 6 (%.2f%%) not worse than jitter 1 (%.2f%%) at this seed",
			100*high.ErrorRate, 100*low.ErrorRate)
	}
	if high.ErrorRate > 0.30 {
		t.Errorf("channel collapsed at jitter 6: %.2f%%", 100*high.ErrorRate)
	}
}

func TestPredictorAblation(t *testing.T) {
	r := runQuick[PredictorAblationResult](t, "predictors", 26)
	rates := map[bpu.Mode]float64{}
	for _, row := range r.Modes {
		rates[row.Mode] = row.ErrorRate
	}
	if rates[bpu.BimodalOnly] > 0.02 {
		t.Errorf("pure bimodal error %.2f%%: should be the easiest target", 100*rates[bpu.BimodalOnly])
	}
	if rates[bpu.Hybrid] > 0.05 {
		t.Errorf("hybrid error %.2f%%: forcing 1-level mode failed", 100*rates[bpu.Hybrid])
	}
	if rates[bpu.GshareOnly] < 0.35 {
		t.Errorf("pure gshare error %.2f%%: PC-indexed collisions should not exist", 100*rates[bpu.GshareOnly])
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestTimingChannelComparison(t *testing.T) {
	r := runQuick[TimingChannelResult](t, "timingchannel", 27)
	if r.PMCError > 0.03 {
		t.Errorf("PMC channel error %.2f%%", 100*r.PMCError)
	}
	// Timing-only probing is noisier than the PMC but far better than
	// guessing — consistent with Fig 8's single-shot ~10%.
	if r.TSCError <= r.PMCError {
		t.Errorf("timing (%.2f%%) not noisier than PMC (%.2f%%)", 100*r.TSCError, 100*r.PMCError)
	}
	if r.TSCError > 0.25 {
		t.Errorf("timing channel error %.2f%%: broken", 100*r.TSCError)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestFSMWidthAblation(t *testing.T) {
	r := runQuick[FSMWidthResult](t, "fsmwidth", 28)
	if len(r.Points) != 4 {
		t.Fatalf("rows = %d", len(r.Points))
	}
	for _, row := range r.Points {
		if row.SearchCandidates < 0 {
			t.Errorf("width %d: search failed entirely", row.Width)
			continue
		}
		// The headline: no counter width closes the channel once the
		// attacker self-verifies its prime (§6.1 mimicry).
		if row.ErrorRate > 0.05 {
			t.Errorf("width %d: error %.2f%%", row.Width, 100*row.ErrorRate)
		}
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}
