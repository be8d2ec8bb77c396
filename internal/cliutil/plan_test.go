package cliutil

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"branchscope/internal/engine"
	"branchscope/internal/obs"
	"branchscope/internal/runstore"
)

// seedResult renders the seed its task ran with, so any seed drift
// between execution paths shows up as a byte difference.
type seedResult struct {
	id   string
	seed uint64
}

func (r seedResult) String() string { return fmt.Sprintf("%s ran on seed %d\n", r.id, r.seed) }

func (r seedResult) Rows() []engine.Row {
	return []engine.Row{{engine.F("id", r.id), engine.F("seed", r.seed)}}
}

// testPlan is a two-task suite plan, or with root a one-task plan whose
// task runs on the root seed the way cmd/branchscope's does.
func testPlan(root bool) Plan {
	const seed = 11
	task := func(id string) engine.Task {
		return engine.Task{ID: id, Artifact: "table", Run: func(_ context.Context, cfg engine.Config) (engine.Result, error) {
			if root {
				cfg.Seed = seed
			}
			return seedResult{id, cfg.Seed}, nil
		}}
	}
	p := Plan{Program: "t", Seed: seed, LedgerConfig: map[string]any{"k": "v"}, Root: root}
	if root {
		p.Tasks = []engine.Task{task("solo")}
	} else {
		p.Tasks = []engine.Task{task("a"), task("b")}
	}
	return p
}

// execute runs p through a fresh session with flags f and returns the
// reports, failing the test on any error.
func execute(t *testing.T, f Flags, p Plan) []engine.Report {
	t.Helper()
	f.LogFormat, f.LogLevel = "text", "info"
	var logBuf bytes.Buffer
	s, err := NewSession("t", f, Options{LogWriter: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(logBuf.String(), "degraded") {
		t.Errorf("run degraded:\n%s", logBuf.String())
	}
	return reports
}

// runDir returns the single run directory archived under dir.
func runDir(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("archive %s: %d entries, err %v", dir, len(entries), err)
	}
	return filepath.Join(dir, entries[0].Name())
}

// TestExecuteRootPlan pins what a root program records: the root seed
// its one task runs with, no attempt count, and the bare result text
// as the archived report.
func TestExecuteRootPlan(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	archive := filepath.Join(dir, "archive")
	p := testPlan(true)
	reports := execute(t, Flags{LedgerOut: ledger, Archive: archive}, p)
	if len(reports) != 1 || reports[0].Seed != p.Seed || reports[0].Err != nil {
		t.Fatalf("reports = %+v, want one ok report on seed %d", reports, p.Seed)
	}

	lf, err := os.Open(ledger)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	recs, _, err := obs.ReadLedger(lf)
	if err != nil || len(recs) != 1 {
		t.Fatalf("ledger: %d records, err %v", len(recs), err)
	}
	if r := recs[0]; r.Seed != p.Seed || r.BaseSeed != p.Seed || r.Outcome != "ok" || r.Config["k"] != "v" {
		t.Errorf("ledger record = %+v, want root seed %d, outcome ok, the plan's config", r, p.Seed)
	}

	run := runDir(t, archive)
	report, err := os.ReadFile(filepath.Join(run, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (seedResult{"solo", p.Seed}).String(); string(report) != want {
		t.Errorf("report.txt = %q, want the bare result text %q", report, want)
	}
	_, m, err := runstore.LoadRun(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Outcomes) != 1 || m.Outcomes[0] != (runstore.TaskOutcome{ID: "solo", Seed: p.Seed, Outcome: "ok"}) {
		t.Errorf("manifest outcomes = %+v", m.Outcomes)
	}
}

// TestExecuteInvalidInvocation: a plan the flags cannot run returns no
// reports, so the CLIs exit with a usage status.
func TestExecuteInvalidInvocation(t *testing.T) {
	s, err := NewSession("t", Flags{LogFormat: "text", LogLevel: "info", Chaos: "bogus"}, Options{LogWriter: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if reports, err := s.Execute(context.Background(), testPlan(false)); reports != nil || err == nil {
		t.Errorf("bad -chaos: reports=%v err=%v, want none and an error", reports, err)
	}
}

// TestExecuteFabricMatchesLocal: a coordinator session sharding the
// plan to a worker session archives the same bytes as a local run, for
// a suite and for a root program alike.
func TestExecuteFabricMatchesLocal(t *testing.T) {
	for _, root := range []bool{false, true} {
		t.Run(fmt.Sprintf("root=%v", root), func(t *testing.T) {
			dir := t.TempDir()
			p := testPlan(root)
			execute(t, Flags{Archive: filepath.Join(dir, "local")}, p)

			var wlog bytes.Buffer
			ws, err := NewSession("t", Flags{LogFormat: "text", LogLevel: "info", Worker: true, Serve: "127.0.0.1:0"},
				Options{LogWriter: &wlog})
			if err != nil {
				t.Fatal(err)
			}
			addr := strings.Fields(wlog.String()[strings.Index(wlog.String(), "addr=")+len("addr="):])[0]
			ctx, stop := context.WithCancel(context.Background())
			served := make(chan error, 1)
			go func() {
				_, err := ws.Execute(ctx, p)
				served <- err
			}()
			defer func() {
				stop()
				if err := <-served; err != nil {
					t.Error(err)
				}
				ws.Close()
			}()
			for deadline := time.Now().Add(10 * time.Second); ; {
				resp, err := http.Get("http://" + addr + "/readyz")
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
				}
				if time.Now().After(deadline) {
					t.Fatal("worker never became ready")
				}
				time.Sleep(5 * time.Millisecond)
			}

			execute(t, Flags{Archive: filepath.Join(dir, "fabric"), Coordinator: true, Workers: addr}, p)
			local, fabric := runDir(t, filepath.Join(dir, "local")), runDir(t, filepath.Join(dir, "fabric"))
			if filepath.Base(local) != filepath.Base(fabric) {
				t.Fatalf("run IDs differ: %s vs %s", filepath.Base(local), filepath.Base(fabric))
			}
			for _, name := range []string{"report.txt", "export.json", runstore.ManifestName} {
				a, errA := os.ReadFile(filepath.Join(local, name))
				b, errB := os.ReadFile(filepath.Join(fabric, name))
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					t.Errorf("%s differs (errs %v, %v):\nlocal:\n%s\nfabric:\n%s", name, errA, errB, a, b)
				}
			}
		})
	}
}
