package cliutil

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"branchscope/internal/campaign"
	"branchscope/internal/engine"
	"branchscope/internal/obs"
	"branchscope/internal/runstore"
	"branchscope/internal/telemetry"
	"branchscope/internal/telemetry/promtext"
)

// TestFlagRegistrationParity pins the shared flag surface: every CLI
// registers through Flags.Register, so the set of names and usage
// strings here IS the parity contract across cmd/branchscope,
// cmd/experiments and cmd/phtmap.
func TestFlagRegistrationParity(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f.Register(fs)
	want := []string{
		"metrics-out", "trace-out", "serve", "ledger-out",
		"leakage-out", "introspect-out",
		"log-format", "log-level", "cpuprofile", "memprofile",
		"chaos", "chaos-seed", "retry",
		"checkpoint", "resume", "watchdog", "breaker",
		"archive",
		"coordinator", "workers", "worker",
		"service", "svc-jobs", "svc-queue",
		"svc-tenant-running", "svc-tenant-queue", "svc-journal",
	}
	for _, name := range want {
		if fs.Lookup(name) == nil {
			t.Errorf("shared flag -%s not registered", name)
		}
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != len(want) {
		t.Errorf("registered %d flags, want %d", n, len(want))
	}
}

func TestNewSessionValidatesLogFlags(t *testing.T) {
	if _, err := NewSession("t", Flags{LogFormat: "xml", LogLevel: "info"}, Options{}); err == nil {
		t.Error("bad -log-format accepted")
	}
	if _, err := NewSession("t", Flags{LogFormat: "text", LogLevel: "screaming"}, Options{}); err == nil {
		t.Error("bad -log-level accepted")
	}
}

func TestSessionEnablesSinksPerFlags(t *testing.T) {
	var logBuf bytes.Buffer
	dir := t.TempDir()
	s, err := NewSession("t", Flags{
		LogFormat: "json", LogLevel: "debug",
		MetricsOut: filepath.Join(dir, "m.json"),
		LedgerOut:  filepath.Join(dir, "l.jsonl"),
	}, Options{LogWriter: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	if s.Metrics == nil || s.Ledger == nil || s.Deltas == nil {
		t.Fatalf("sinks not enabled: %+v", s)
	}
	if s.Trace != nil {
		t.Error("tracer on without -trace-out")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Disabled-by-default session: no registry at all.
	s2, err := NewSession("t", Flags{LogFormat: "text", LogLevel: "info"}, Options{LogWriter: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Metrics != nil {
		t.Error("registry on without any flag asking for it")
	}
	defer s2.Close()
}

// TestInterruptedSuiteStillFlushesExports is the regression test for
// the SIGINT flush gap: a suite interrupted by cancellation mid-run
// must still leave a valid metrics JSON file and a parseable ledger
// behind, because Session.Close runs on the cancel path too.
func TestInterruptedSuiteStillFlushesExports(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	var logBuf bytes.Buffer
	sess, err := NewSession("test", Flags{
		LogFormat: "text", LogLevel: "info",
		MetricsOut: metricsPath,
		LedgerOut:  ledgerPath,
	}, Options{LogWriter: &logBuf})
	if err != nil {
		t.Fatal(err)
	}

	// A three-task suite; the first task records a metric and then
	// cancels the run, standing in for SIGINT arriving mid-suite.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tasks := []engine.Task{
		{ID: "first", Artifact: "T", Description: "cancels the suite", Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			sess.Metrics.Counter("test.progress").Add(41)
			cancel()
			return nil, ctx.Err()
		}},
		{ID: "second", Artifact: "T", Description: "never starts", Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			t.Error("second task ran after cancellation")
			return nil, nil
		}},
		{ID: "third", Artifact: "T", Description: "never starts", Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			t.Error("third task ran after cancellation")
			return nil, nil
		}},
	}
	runner := &engine.Runner{
		OnStart: func(task engine.Task, seed uint64) { sess.Deltas.Begin(task.ID) },
		OnDone: func(rep engine.Report) {
			errStr := ""
			if rep.Err != nil {
				errStr = rep.Err.Error()
			}
			sess.Ledger.Append(obs.LedgerRecord{
				Program: "test", ID: rep.Task.ID,
				Config:   map[string]any{"quick": true},
				BaseSeed: 1, Seed: rep.Seed,
				Outcome: rep.Outcome, Error: errStr,
				WallSeconds:  rep.Wall.Seconds(),
				MetricsDelta: sess.Deltas.End(rep.Task.ID),
			})
		},
	}
	reports := runner.RunSuite(ctx, tasks, engine.Config{Quick: true, Seed: 1})
	if engine.Failed(reports) != 3 {
		t.Fatalf("expected all 3 tasks to fail under cancellation, got %d", engine.Failed(reports))
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close on the cancel path: %v", err)
	}

	// The metrics file must exist and be valid snapshot JSON carrying
	// the pre-interrupt counter.
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics file missing after interrupt: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("interrupted metrics file is not valid JSON: %v\n%s", err, data)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "test.progress" || snap.Counters[0].Value != 41 {
		t.Errorf("interrupted metrics lost data: %+v", snap)
	}

	// The ledger must hold one schema-stamped record per task, with
	// the cancellation classified.
	lf, err := os.Open(ledgerPath)
	if err != nil {
		t.Fatalf("ledger missing after interrupt: %v", err)
	}
	defer lf.Close()
	outcomes := map[string]string{}
	sc := bufio.NewScanner(lf)
	for sc.Scan() {
		var rec obs.LedgerRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("ledger line unparseable: %v\n%s", err, sc.Text())
		}
		if rec.Schema != obs.LedgerSchema {
			t.Errorf("ledger schema = %q", rec.Schema)
		}
		outcomes[rec.ID] = rec.Outcome
	}
	if len(outcomes) != 3 {
		t.Fatalf("ledger records = %d, want 3 (skipped tasks must be recorded): %v", len(outcomes), outcomes)
	}
	for id, o := range outcomes {
		if o != "canceled" {
			t.Errorf("task %s outcome = %q, want canceled", id, o)
		}
	}
}

// TestSessionServeLifecycle starts the obs server through a session,
// scrapes it, and verifies Close shuts it down.
func TestSessionServeLifecycle(t *testing.T) {
	var logBuf bytes.Buffer
	s, err := NewSession("t", Flags{
		LogFormat: "text", LogLevel: "info", Serve: "127.0.0.1:0",
	}, Options{LogWriter: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	if s.Metrics == nil {
		t.Fatal("-serve must enable the registry")
	}
	// The bound address is logged for the user; recover it from the
	// server handle via the log line.
	logLine := logBuf.String()
	idx := strings.Index(logLine, "addr=")
	if idx < 0 {
		t.Fatalf("bound address not logged: %q", logLine)
	}
	addr := strings.Fields(logLine[idx+len("addr="):])[0]
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("server not reachable at %s: %v", addr, err)
	}
	resp.Body.Close()

	// /leakage must serve a lint-clean exposition even before any
	// window has been observed (the comment-only degenerate case).
	resp, err = http.Get("http://" + addr + "/leakage")
	if err != nil {
		t.Fatalf("GET /leakage: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := promtext.Lint(bytes.NewReader(body)); err != nil {
		t.Errorf("/leakage fails exposition lint: %v\n%s", err, body)
	}

	// /introspect/pht must serve a schema-stamped JSON document.
	resp, err = http.Get("http://" + addr + "/introspect/pht")
	if err != nil {
		t.Fatalf("GET /introspect/pht: %v", err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/introspect/pht is not JSON: %v\n%s", err, body)
	}
	if doc.Schema != obs.IntrospectSchema {
		t.Errorf("/introspect/pht schema = %q, want %q", doc.Schema, obs.IntrospectSchema)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still reachable after Close")
	}
}

// TestCampaignFlagValidation pins the durability flag surface shared
// by the CLIs: -resume requires -checkpoint, no flags means no
// campaign, and single-task programs reject both, plus the knobs they
// never apply (-breaker; -retry where no read loop takes it), which
// would otherwise mint a new run ID for identical output.
func TestCampaignFlagValidation(t *testing.T) {
	if c, err := (Flags{}).Campaign(campaign.Header{}); err != nil || c != nil {
		t.Errorf("no flags: campaign=%v err=%v, want nil/nil", c, err)
	}
	if _, err := (Flags{Resume: true}).Campaign(campaign.Header{}); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	if err := (Flags{}).RequireNoCampaign("prog"); err != nil {
		t.Errorf("RequireNoCampaign without flags: %v", err)
	}
	if err := (Flags{Checkpoint: "x"}).RequireNoCampaign("prog"); err == nil {
		t.Error("single-task program accepted -checkpoint")
	}
	if err := (Flags{Resume: true}).RequireNoCampaign("prog"); err == nil {
		t.Error("single-task program accepted -resume")
	}
	// A breaker only skips a family's remaining tasks; with one root
	// task it would change nothing but the run ID.
	if err := (Flags{Breaker: 2}).RequireNoCampaign("prog"); err == nil {
		t.Error("single-task program accepted -breaker")
	}
	if err := (Flags{Retry: 3}).RequireNoRetry("prog"); err == nil {
		t.Error("program without a resilient read loop accepted -retry")
	}
	if err := (Flags{}).RequireNoRetry("prog"); err != nil {
		t.Errorf("RequireNoRetry without flags: %v", err)
	}

	// A fresh -checkpoint campaign opens a journal ready for appends.
	path := filepath.Join(t.TempDir(), "j.journal")
	c, err := (Flags{Checkpoint: path}).Campaign(campaign.Header{Program: "t", Tasks: []string{"a"}})
	if err != nil || c == nil {
		t.Fatalf("fresh campaign: %v", err)
	}
	if err := c.Journal.Append(campaign.TaskRecord{ID: "a", Outcome: "ok"}); err != nil {
		t.Fatal(err)
	}
	c.Journal.Close()
	// And -resume reopens it with the completed record replayed.
	c2, err := (Flags{Checkpoint: path, Resume: true}).Campaign(campaign.Header{Program: "t", Tasks: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Journal.Close()
	if len(c2.Replayed) != 1 || c2.Replayed[0].ID != "a" {
		t.Errorf("resume replayed %+v, want record a", c2.Replayed)
	}
}

// TestIdentityConfigShape pins what makes it into the run identity:
// result-shaping flags yes, crash-only chaos no — a crash point only
// decides whether the process survives, so the crashed run and its
// resume must share a RunID with the uninterrupted oracle.
func TestIdentityConfigShape(t *testing.T) {
	cfg, err := (Flags{Retry: 3, Breaker: 2}).IdentityConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg["retry"] != 3 || cfg["breaker"] != 2 {
		t.Errorf("retry/breaker missing: %v", cfg)
	}
	if _, ok := cfg["chaos"]; ok {
		t.Errorf("chaos present without -chaos: %v", cfg)
	}

	cfg, err = (Flags{Chaos: `{"crash":{"magnitude":3}}`}).IdentityConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg["chaos"]; ok {
		t.Errorf("crash-only chaos plan leaked into the identity: %v", cfg)
	}

	cfg, err = (Flags{Chaos: "moderate"}).IdentityConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg["chaos"]; !ok {
		t.Errorf("episode-fault chaos plan missing from the identity: %v", cfg)
	}
}

// TestSessionArchiveLifecycle drives the full -archive path through a
// session: identity → archiver → outcomes/blobs → Close writes the
// run directory, and the ledger records carry the RunID.
func TestSessionArchiveLifecycle(t *testing.T) {
	dir := t.TempDir()
	archiveDir := filepath.Join(dir, "archive")
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	var logBuf bytes.Buffer
	f := Flags{
		LogFormat: "text", LogLevel: "info",
		LedgerOut: ledgerPath, Archive: archiveDir,
	}
	s, err := NewSession("t", f, Options{LogWriter: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	id := runstore.Identity{Program: "t", BaseSeed: 1, Tasks: []string{"a"}}
	arc := f.Archiver(id)
	if arc == nil {
		t.Fatal("-archive set but Archiver returned nil")
	}
	s.SetRunID(arc.RunID())
	s.SetArchiver(arc)

	s.Ledger.Append(obs.LedgerRecord{Program: "t", ID: "a", Outcome: "ok"})
	arc.Record(runstore.TaskOutcome{ID: "a", Seed: 1, Outcome: "ok", Attempts: 1})
	arc.AddBlob("report", []byte("a settled\n"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	runDir := filepath.Join(archiveDir, id.RunID())
	_, m, err := runstore.LoadRun(runDir)
	if err != nil {
		t.Fatalf("archive not written: %v", err)
	}
	if m.RunID != id.RunID() || m.Counts["ok"] != 1 {
		t.Errorf("manifest wrong: %+v", m)
	}
	kinds := map[string]bool{}
	for _, a := range m.Artifacts {
		kinds[a.Kind] = true
	}
	if !kinds["report"] || !kinds["ledger"] {
		t.Errorf("artifacts missing report/ledger: %+v", m.Artifacts)
	}

	lf, err := os.Open(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	recs, torn, err := obs.ReadLedger(lf)
	if err != nil || torn {
		t.Fatalf("ledger unreadable: torn=%v err=%v", torn, err)
	}
	if len(recs) != 1 || recs[0].RunID != id.RunID() {
		t.Errorf("ledger record missing RunID: %+v", recs)
	}
}

// TestSessionRepairsTornLedger: reopening a ledger whose final record
// was torn by a crash truncates the torn line (otherwise the next
// append would bury it mid-file as hard corruption) and flags the
// session so /statusz can surface the loss. A complete final record
// that lost only its newline is kept and ended instead, so the next
// append does not join its line.
func TestSessionRepairsTornLedger(t *testing.T) {
	good := `{"schema":"branchscope.ledger/v1","program":"t","id":"a","config":{},"base_seed":1,"seed":1,"outcome":"ok","wall_seconds":0}`
	for _, tc := range []struct {
		name, content string
		torn          bool
	}{
		{"torn", good + "\n" + `{"schema":"branchscope.le`, true},
		{"unterminated", good, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ledgerPath := filepath.Join(t.TempDir(), "ledger.jsonl")
			if err := os.WriteFile(ledgerPath, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			var logBuf bytes.Buffer
			s, err := NewSession("t", Flags{LogFormat: "text", LogLevel: "info", LedgerOut: ledgerPath},
				Options{LogWriter: &logBuf})
			if err != nil {
				t.Fatal(err)
			}
			if s.ledgerTorn != tc.torn {
				t.Errorf("session ledgerTorn = %v, want %v", s.ledgerTorn, tc.torn)
			}
			if got := strings.Contains(logBuf.String(), "torn"); got != tc.torn {
				t.Errorf("torn ledger logged = %v, want %v: %q", got, tc.torn, logBuf.String())
			}
			s.Ledger.Append(obs.LedgerRecord{Program: "t", ID: "b", Outcome: "ok"})
			s.Ledger.Append(obs.LedgerRecord{Program: "t", ID: "c", Outcome: "ok"})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			lf, err := os.Open(ledgerPath)
			if err != nil {
				t.Fatal(err)
			}
			defer lf.Close()
			recs, torn, err := obs.ReadLedger(lf)
			if err != nil {
				t.Fatalf("ledger corrupt after repair+append: %v", err)
			}
			if torn {
				t.Error("ledger still torn after repair")
			}
			if len(recs) != 3 || recs[0].ID != "a" || recs[1].ID != "b" || recs[2].ID != "c" {
				t.Errorf("ledger records = %+v, want a, b, c", recs)
			}
		})
	}
}

// TestFabricFlagValidation pins the fabric flag combinations shared by
// the campaign CLIs.
func TestFabricFlagValidation(t *testing.T) {
	if urls, err := (Flags{}).FabricWorkers(); err != nil || urls != nil {
		t.Errorf("no fabric flags: urls=%v err=%v, want nil/nil", urls, err)
	}
	if _, err := (Flags{Coordinator: true}).FabricWorkers(); err == nil {
		t.Error("-coordinator without -workers accepted")
	}
	if _, err := (Flags{Workers: "http://x:1"}).FabricWorkers(); err == nil {
		t.Error("-workers without -coordinator accepted")
	}
	if _, err := (Flags{Worker: true}).FabricWorkers(); err == nil {
		t.Error("-worker without -serve accepted")
	}
	if _, err := (Flags{Worker: true, Coordinator: true, Serve: ":0", Workers: "x"}).FabricWorkers(); err == nil {
		t.Error("-worker -coordinator accepted together")
	}
	if _, err := (Flags{Worker: true, Serve: ":0", Checkpoint: "j"}).FabricWorkers(); err == nil {
		t.Error("-worker with -checkpoint accepted (the coordinator owns the journal)")
	}
	urls, err := (Flags{Coordinator: true, Workers: " 127.0.0.1:9001 , http://127.0.0.1:9002/ "}).FabricWorkers()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://127.0.0.1:9001", "http://127.0.0.1:9002"}
	if len(urls) != 2 || urls[0] != want[0] || urls[1] != want[1] {
		t.Errorf("worker URLs = %v, want %v", urls, want)
	}

	if err := (Flags{}).RequireNoFabric("prog"); err != nil {
		t.Errorf("RequireNoFabric without flags: %v", err)
	}
	if err := (Flags{Coordinator: true}).RequireNoFabric("prog"); err == nil {
		t.Error("local-only program accepted -coordinator")
	}
	if err := (Flags{Worker: true}).RequireNoFabric("prog"); err == nil {
		t.Error("local-only program accepted -worker")
	}
}

// TestServiceFlagValidation pins the service flag combinations: the
// mode needs a serve address, excludes the fabric and campaign modes,
// and local-only programs reject the whole surface.
func TestServiceFlagValidation(t *testing.T) {
	if err := (Flags{}).ServiceMode(); err != nil {
		t.Errorf("no service flags: %v", err)
	}
	if err := (Flags{SvcJobs: 2}).ServiceMode(); err == nil {
		t.Error("-svc-jobs without -service accepted")
	}
	if err := (Flags{Service: true}).ServiceMode(); err == nil {
		t.Error("-service without -serve accepted")
	}
	if err := (Flags{Service: true, Serve: ":0", Worker: true}).ServiceMode(); err == nil {
		t.Error("-service with -worker accepted")
	}
	if err := (Flags{Service: true, Serve: ":0", Coordinator: true}).ServiceMode(); err == nil {
		t.Error("-service with -coordinator accepted")
	}
	if err := (Flags{Service: true, Serve: ":0", Checkpoint: "j"}).ServiceMode(); err == nil {
		t.Error("-service with -checkpoint accepted")
	}
	if err := (Flags{Service: true, Serve: ":0", SvcQueue: -1}).ServiceMode(); err == nil {
		t.Error("negative -svc-queue accepted")
	}
	if err := (Flags{Service: true, Serve: ":0", SvcJobs: 4, SvcJournal: "j"}).ServiceMode(); err != nil {
		t.Errorf("valid service flags rejected: %v", err)
	}

	if err := (Flags{}).RequireNoService("prog"); err != nil {
		t.Errorf("RequireNoService without flags: %v", err)
	}
	if err := (Flags{Service: true}).RequireNoService("prog"); err == nil {
		t.Error("local-only program accepted -service")
	}
	if err := (Flags{SvcJournal: "j"}).RequireNoService("prog"); err == nil {
		t.Error("local-only program accepted -svc-journal")
	}
}

// TestBreakersFlag: -breaker 0 disables breaking, N arms it.
func TestBreakersFlag(t *testing.T) {
	if (Flags{}).Breakers() != nil {
		t.Error("-breaker 0 built a breaker set")
	}
	b := (Flags{Breaker: 2}).Breakers()
	if b == nil {
		t.Fatal("-breaker 2 built no breaker set")
	}
	b.Observe("f", "error")
	b.Observe("f", "error")
	if b.Admit("f") {
		t.Error("breaker did not open at the flag's threshold")
	}
}
