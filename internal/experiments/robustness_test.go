package experiments

import (
	"strings"
	"testing"

	"branchscope/internal/chaos"
)

// TestRobustnessAcceptance runs the quick sweep and pins the PR's
// acceptance shape: the resilient loop recovers ≥90% of the bits it
// commits to at moderate intensity, where the naive loop measurably
// degrades, and exhausted budgets surface as Unknown instead of
// silently wrong bits.
func TestRobustnessAcceptance(t *testing.T) {
	res := runQuick[RobustnessResult](t, "robustness", 1)
	cell := func(probe string, intensity float64, budget int) RobustnessCell {
		t.Helper()
		for _, c := range res.Cells {
			if c.Scenario == "" && c.Probe == probe && c.Intensity == intensity && c.Budget == budget {
				return c
			}
		}
		t.Fatalf("sweep missing cell %s/%g/%d", probe, intensity, budget)
		return RobustnessCell{}
	}
	scenario := func(name string) RobustnessCell {
		t.Helper()
		for _, c := range res.Cells {
			if c.Scenario == name {
				return c
			}
		}
		t.Fatalf("sweep missing scenario cell %q", name)
		return RobustnessCell{}
	}

	// Fault-free resilient baseline: nothing to retry away, no bit ever
	// abandoned.
	clean := cell("pmc", 0, 5)
	if clean.UnknownRate != 0 || clean.ErrorRate > 0.02 {
		t.Errorf("fault-free resilient cell degraded: %+v", clean)
	}

	naive := cell("pmc", chaos.ModerateIntensity, 0)
	resilient := cell("pmc", chaos.ModerateIntensity, 5)
	if resilient.KnownAccuracy < 0.9 {
		t.Errorf("resilient known-bit accuracy %.4f at moderate intensity, want >= 0.9",
			resilient.KnownAccuracy)
	}
	naiveAcc := 1 - naive.ErrorRate
	if naiveAcc > resilient.KnownAccuracy-0.02 {
		t.Errorf("naive accuracy %.4f not measurably below resilient known accuracy %.4f",
			naiveAcc, resilient.KnownAccuracy)
	}
	// Graceful degradation: under chaos the budget does run out on some
	// bits, and those surface as Unknown — never as confident errors
	// beyond the (small) wrong-known rate.
	if resilient.UnknownRate == 0 {
		t.Error("no Unknown bits under moderate chaos: exhaustion is being hidden")
	}
	if resilient.WrongKnownRate > naive.ErrorRate {
		t.Errorf("resilient silent-error rate %.4f exceeds the naive error rate %.4f",
			resilient.WrongKnownRate, naive.ErrorRate)
	}
	// The naive loop has no Unknown state by construction.
	for _, c := range res.Cells {
		if c.Budget == 0 && c.UnknownRate != 0 {
			t.Errorf("naive cell %s/%g reported unknown bits", c.Probe, c.Intensity)
		}
	}

	// Timing cells under TSC jitter exercise drift recalibration.
	if tsc := cell("tsc", chaos.ModerateIntensity, 5); tsc.Recalibrations < 1 {
		t.Errorf("no drift recalibration in the moderate-intensity timing cell: %+v", tsc)
	}
	if tsc := cell("tsc", 0, 5); tsc.Recalibrations != 0 {
		t.Errorf("fault-free timing cell recalibrated %d times", tsc.Recalibrations)
	}

	// The PMC saturation storm: with the health gate off the naive loop
	// rides corrupted counters to the end; with the gate armed the
	// session must trip, fall back to timing probes, and recover.
	stormOff := scenario("storm")
	stormOn := scenario("storm+degrade")
	if stormOff.Degraded != 0 {
		t.Errorf("gate-off storm cell reported %d degraded runs", stormOff.Degraded)
	}
	if stormOn.Degraded < 1 {
		t.Errorf("armed storm cell never tripped the health gate: %+v", stormOn)
	}
	if stormOn.ErrorRate >= stormOff.ErrorRate-0.05 {
		t.Errorf("degradation did not recover the storm cell: gate on %.4f vs off %.4f",
			stormOn.ErrorRate, stormOff.ErrorRate)
	}

	// The rendered table carries the summary lines the docs quote.
	s := res.String()
	if !strings.Contains(s, "resilient (budget 5) known-bit accuracy") {
		t.Errorf("summary line missing from:\n%s", s)
	}
	if !strings.Contains(s, "PMC saturation storm") || !strings.Contains(s, "tripped->tsc") {
		t.Errorf("storm mini-table missing from:\n%s", s)
	}
}
