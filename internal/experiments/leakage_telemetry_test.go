package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"branchscope/internal/leakage"
	"branchscope/internal/telemetry"
	"branchscope/internal/telemetry/promtext"
	"branchscope/internal/uarch"
)

// TestCovertLeakageReport checks the channel-quality numbers a clean
// covert cell reports: every transmitted bit lands in the confusion
// matrix, the naive path's BER equals the cell error rate (no Unknown
// bits to split), the signal populations carry one sample per episode,
// and the whole report round-trips deterministically.
func TestCovertLeakageReport(t *testing.T) {
	set, res := covertTelemetryRun(t, 7)
	lk := res.Leakage
	if lk.Schema != leakage.Schema {
		t.Errorf("schema = %q", lk.Schema)
	}
	if lk.Bits != 40 || lk.Unknown != 0 {
		t.Errorf("bits/unknown = %d/%d, want 40/0", lk.Bits, lk.Unknown)
	}
	if lk.BitErrorRate != res.ErrorRate {
		t.Errorf("BER %v != error rate %v on the naive path", lk.BitErrorRate, res.ErrorRate)
	}
	if lk.Windows != 1 {
		t.Errorf("windows = %d, want 1 (one run)", lk.Windows)
	}
	if n := lk.Signal[0].N + lk.Signal[1].N; n != 40 {
		t.Errorf("signal samples = %d, want one per episode (40)", n)
	}
	// A near-clean random-pattern channel must show close to 1
	// bit/branch of mutual information and capacity.
	if lk.MutualInformationBits < 0.5 || lk.CapacityBits < lk.MutualInformationBits-1e-9 {
		t.Errorf("MI/capacity = %v/%v", lk.MutualInformationBits, lk.CapacityBits)
	}

	// The gauges mirror the report.
	reg := set.Metrics
	if got := reg.Gauge("leakage.ber").Value(); got != lk.BitErrorRate {
		t.Errorf("leakage.ber gauge = %v, want %v", got, lk.BitErrorRate)
	}
	if got := reg.Counter("leakage.windows").Value(); got != 1 {
		t.Errorf("leakage.windows = %d, want 1", got)
	}
	counts := map[string]uint64{}
	for _, h := range reg.Snapshot().Histograms {
		counts[h.Name] = h.Count
	}
	for _, name := range []string{"leakage.window.ber_permille", "leakage.window.mi_millibits"} {
		if got := counts[name]; got != 1 {
			t.Errorf("%s count = %d, want 1", name, got)
		}
	}
}

// TestLeakageScrapeGolden is the promtext golden for the leakage
// metric family, built from two hand-fed windows: a clean one and an
// all-Unknown (degenerate, MI exactly 0) one. The exposition must be
// byte-stable — it is the /leakage wire format.
func TestLeakageScrapeGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	set := telemetry.New(reg, nil)
	est := &leakage.Estimator{}

	clean := &leakage.Estimator{}
	for i := 0; i < 10; i++ {
		clean.Observe(i%2 == 0, i%2 == 0, true)
	}
	finishWindow(set, est, clean)

	unknown := &leakage.Estimator{}
	for i := 0; i < 10; i++ {
		unknown.Observe(i%2 == 0, false, false) // every read gave up
	}
	if r := unknown.Report(); r.MutualInformationBits != 0 || r.BitErrorRate != 0.5 {
		t.Fatalf("degenerate window report = %+v", r)
	}
	finishWindow(set, est, unknown)

	var buf bytes.Buffer
	if err := promtext.Write(&buf, reg.Snapshot().Filter("leakage.")); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if err := promtext.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("scrape fails lint: %v\n%s", err, body)
	}
	// Golden lines: the window counter, and the cumulative histogram
	// buckets the two windows land in. The clean window has BER 0 and
	// MI exactly 1000 millibits (inclusive last bound); the degenerate
	// window has BER 500 permille and MI 0.
	for _, want := range []string{
		"leakage_windows_total 2",
		`leakage_window_ber_permille_bucket{le="50"} 1`,   // clean: BER 0
		`leakage_window_ber_permille_bucket{le="500"} 2`,  // + degenerate at 500
		`leakage_window_mi_millibits_bucket{le="50"} 1`,   // degenerate: MI 0
		`leakage_window_mi_millibits_bucket{le="1000"} 2`, // + clean at 1000
		`leakage_window_mi_millibits_bucket{le="+Inf"} 2`,
		"leakage_window_mi_millibits_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}
	// The merged estimator mirrors both windows.
	if r := est.Report(); r.Windows != 2 || r.Bits != 20 || r.Unknown != 10 {
		t.Errorf("merged report = %+v", r)
	}

	// Byte-stability: rebuilding the same registry renders identically.
	var again bytes.Buffer
	reg2 := telemetry.NewRegistry()
	set2 := telemetry.New(reg2, nil)
	est2 := &leakage.Estimator{}
	clean2 := &leakage.Estimator{}
	for i := 0; i < 10; i++ {
		clean2.Observe(i%2 == 0, i%2 == 0, true)
	}
	finishWindow(set2, est2, clean2)
	unknown2 := &leakage.Estimator{}
	for i := 0; i < 10; i++ {
		unknown2.Observe(i%2 == 0, false, false)
	}
	finishWindow(set2, est2, unknown2)
	if err := promtext.Write(&again, reg2.Snapshot().Filter("leakage.")); err != nil {
		t.Fatal(err)
	}
	if body != again.String() {
		t.Errorf("scrape not byte-stable:\n--- first\n%s--- second\n%s", body, again.String())
	}
}

// TestLeakageSnapshotWhileProbing exercises the concurrent surface
// under the race detector: while a covert run probes and publishes,
// scrape-style readers snapshot the registry, render promtext, and
// read/marshal the live introspection slot.
func TestLeakageSnapshotWhileProbing(t *testing.T) {
	set := telemetry.New(telemetry.NewRegistry(), nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var buf bytes.Buffer
			if err := promtext.Write(&buf, set.Metrics.Snapshot().Filter("leakage.")); err != nil {
				t.Errorf("concurrent scrape: %v", err)
				return
			}
			if snap := leakage.LatestIntrospection(); snap != nil {
				if _, err := json.Marshal(snap); err != nil {
					t.Errorf("concurrent introspection marshal: %v", err)
					return
				}
			}
			leakage.LatestReport()
		}
	}()

	_, err := RunCovert(context.Background(), CovertConfig{
		Model:     uarch.Skylake(),
		Setting:   Isolated,
		Pattern:   RandomBits,
		Bits:      30,
		Runs:      2,
		Seed:      11,
		Telemetry: set,
	})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}
