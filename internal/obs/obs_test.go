package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"branchscope/internal/telemetry"
	"branchscope/internal/telemetry/promtext"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("covert.episodes").Add(7)
	reg.Histogram("probe.cycles", []uint64{10, 100}).Observe(42)
	tracker := NewTracker("test", 1, true, []string{"fig2", "table1"})
	tracker.Begin("fig2", 99)
	tracker.End("fig2", 80*time.Millisecond, "ok", nil)
	tracker.Begin("table1", 42)

	s := &Server{Program: "test", Metrics: reg, Status: tracker.Status}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if code, body := get(t, srv, "/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, srv, "/readyz"); code != 200 || body != "ready\n" {
		t.Errorf("/readyz = %d %q", code, body)
	}

	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if err := promtext.Lint(strings.NewReader(body)); err != nil {
		t.Errorf("/metrics fails exposition lint: %v\n%s", err, body)
	}
	if !strings.Contains(body, "covert_episodes_total 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	code, body = get(t, srv, "/statusz")
	if code != 200 {
		t.Fatalf("/statusz = %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/statusz is not JSON: %v\n%s", err, body)
	}
	if st.Schema != StatusSchema || st.Program != "test" || st.BaseSeed != 1 || !st.Quick {
		t.Errorf("statusz header = %+v", st)
	}
	if st.Done != 1 || st.Running != 1 || st.Pending != 0 {
		t.Errorf("statusz counts = done=%d running=%d pending=%d, want 1/1/0", st.Done, st.Running, st.Pending)
	}
	if len(st.Tasks) != 2 || st.Tasks[0].ID != "fig2" || st.Tasks[0].State != "done" || st.Tasks[0].Seed != 99 {
		t.Errorf("statusz tasks = %+v", st.Tasks)
	}
	if len(st.Histograms) != 1 || st.Histograms[0].Name != "probe.cycles" || st.Histograms[0].P50 != 42 {
		t.Errorf("statusz histograms = %+v", st.Histograms)
	}
	if st.PID == 0 || st.GoVersion == "" {
		t.Errorf("statusz missing process identity: %+v", st)
	}

	if code, body := get(t, srv, "/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d %q", code, body)
	}
	if code, _ := get(t, srv, "/nope"); code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

func TestReadyzNotReady(t *testing.T) {
	s := &Server{Ready: func() bool { return false }}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if code, _ := get(t, srv, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d, want 503", code)
	}
	// Liveness is independent of readiness.
	if code, _ := get(t, srv, "/healthz"); code != 200 {
		t.Errorf("/healthz = %d, want 200", code)
	}
}

func TestNilRegistryServesEmptyMetrics(t *testing.T) {
	s := &Server{}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if code, body := get(t, srv, "/metrics"); code != 200 || body != "" {
		t.Errorf("/metrics on nil registry = %d %q, want 200 and empty", code, body)
	}
	code, body := get(t, srv, "/statusz")
	var st Status
	if code != 200 || json.Unmarshal([]byte(body), &st) != nil {
		t.Errorf("/statusz on zero server = %d %q", code, body)
	}
}

// TestConcurrentScrape hits /metrics and /statusz while instruments and
// the tracker are updated concurrently — the mid-run scrape path, run
// under -race in CI.
func TestConcurrentScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracker := NewTracker("race", 1, true, []string{"a", "b", "c"})
	s := &Server{Program: "race", Metrics: reg, Status: tracker.Status}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := reg.Histogram("h", telemetry.ExpBuckets(1, 2, 10))
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				reg.Counter("c").Inc()
				h.Observe(i % 500)
				id := string(rune('a' + i%3))
				tracker.Begin(id, i)
				tracker.End(id, time.Duration(i), "ok", nil)
			}
		}
	}()
	for i := 0; i < 30; i++ {
		_, body := get(t, srv, "/metrics")
		if err := promtext.Lint(strings.NewReader(body)); err != nil {
			t.Fatalf("scrape %d fails lint: %v\n%s", i, err, body)
		}
		var st Status
		if _, body := get(t, srv, "/statusz"); json.Unmarshal([]byte(body), &st) != nil {
			t.Fatalf("scrape %d: statusz not JSON:\n%s", i, body)
		}
	}
	close(stop)
	wg.Wait()
}

func TestStartShutdown(t *testing.T) {
	s := &Server{Program: "t"}
	h, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if h.Addr() == "" || strings.HasSuffix(h.Addr(), ":0") {
		t.Errorf("bound address not discovered: %q", h.Addr())
	}
	resp, err := http.Get("http://" + h.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if res, err := h.Drain(ctx); err != nil || !res.Drained {
		t.Errorf("shutdown: %v (%s)", err, res)
	}
	if _, err := http.Get("http://" + h.Addr() + "/healthz"); err == nil {
		t.Error("server still reachable after shutdown")
	}
}

func TestNilTrackerAndLogger(t *testing.T) {
	var tr *Tracker
	tr.Begin("x", 1)
	tr.End("x", 0, "", nil)
	if st := tr.Status(); st.Schema != StatusSchema {
		t.Errorf("nil tracker status = %+v", st)
	}
	if _, err := NewLogger(io.Discard, "yaml", "info"); err == nil {
		t.Error("bad format accepted")
	}
	if _, err := NewLogger(io.Discard, "json", "loud"); err == nil {
		t.Error("bad level accepted")
	}
	log, err := NewLogger(io.Discard, "json", "debug")
	if err != nil || log == nil {
		t.Fatalf("valid logger rejected: %v", err)
	}
}

// TestTrackerStuckAndReplayed pins the supervision surface of
// /statusz: MarkStuck flips only running tasks to the advisory stuck
// state (still counted as running), End overwrites it with the real
// outcome, and replayed outcomes are tallied separately.
func TestTrackerStuckAndReplayed(t *testing.T) {
	tr := NewTracker("test", 1, true, []string{"a", "b", "c"})

	tr.MarkStuck("a") // pending, not running: no-op
	if s := tr.Status(); s.Stuck != 0 {
		t.Errorf("pending task marked stuck: %+v", s)
	}

	tr.Begin("a", 7)
	tr.MarkStuck("a")
	s := tr.Status()
	if s.Stuck != 1 || s.Running != 1 {
		t.Errorf("stuck task must count as running+stuck, got running=%d stuck=%d", s.Running, s.Stuck)
	}
	if s.Tasks[0].State != "stuck" {
		t.Errorf("task state = %q, want stuck", s.Tasks[0].State)
	}

	// The real outcome overwrites the advisory state.
	tr.End("a", time.Millisecond, "ok", nil)
	tr.Begin("b", 8)
	tr.End("b", 0, "replayed", nil)
	s = tr.Status()
	if s.Stuck != 0 || s.Done != 2 || s.Replayed != 1 {
		t.Errorf("after End: stuck=%d done=%d replayed=%d", s.Stuck, s.Done, s.Replayed)
	}
}

// TestDrainRejectsNewWork: a draining server sheds work-submitting
// POSTs (fabric assignments, service job submissions) with 503 +
// Retry-After while reads and job cancellation keep serving, so a
// coordinator or client can observe the drain and go elsewhere instead
// of handing tasks to a process about to abandon them.
func TestDrainRejectsNewWork(t *testing.T) {
	okHandler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "accepted")
	})
	s := &Server{Program: "t", Fabric: okHandler, Jobs: okHandler}
	h, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		h.Drain(ctx)
	}()
	base := "http://" + h.Addr()

	post := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp
	}

	// Before the drain both submission endpoints accept.
	for _, path := range []string{"/fabric/run", "/jobs"} {
		if resp := post(path); resp.StatusCode != http.StatusOK {
			t.Errorf("pre-drain POST %s: status %d, want 200", path, resp.StatusCode)
		}
	}

	h.BeginDrain()

	for _, path := range []string{"/fabric/run", "/jobs"} {
		resp := post(path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining POST %s: status %d, want 503", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Errorf("draining POST %s: missing Retry-After header", path)
		}
	}
	// Withdrawing work stays allowed: cancels help a drain.
	if resp := post("/jobs/job-000001/cancel"); resp.StatusCode != http.StatusOK {
		t.Errorf("draining POST cancel: status %d, want 200", resp.StatusCode)
	}
	// Reads keep serving so operators can watch the drain.
	for _, path := range []string{"/healthz", "/statusz", "/jobs"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("draining GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}
