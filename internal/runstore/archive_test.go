package runstore

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"branchscope/internal/campaign"
	"branchscope/internal/engine"
)

// litResult is a deterministic Result whose bytes depend only on the
// seed the task ran with.
type litResult struct {
	id   string
	seed uint64
}

func (r litResult) String() string {
	return fmt.Sprintf("%s settled with seed %d\n", r.id, r.seed)
}

func (r litResult) Rows() []engine.Row {
	return []engine.Row{{engine.F("id", r.id), engine.F("seed", r.seed)}}
}

func suiteTasks() []engine.Task {
	ids := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	tasks := make([]engine.Task, 0, len(ids))
	for _, id := range ids {
		id := id
		tasks = append(tasks, engine.Task{
			ID:       id,
			Artifact: "test",
			Run: func(_ context.Context, cfg engine.Config) (engine.Result, error) {
				return litResult{id: id, seed: cfg.Seed}, nil
			},
		})
	}
	return tasks
}

// retriedTask times out on its first attempt and succeeds on its
// second, which it tells apart by the attempt's seed: only the first
// runs on the task's standard derived seed.
func retriedTask(id string, baseSeed uint64) engine.Task {
	return engine.Task{
		ID:       id,
		Artifact: "test",
		Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			if cfg.Seed == engine.DeriveSeed(baseSeed, id) {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return litResult{id: id, seed: cfg.Seed}, nil
		},
	}
}

// archiveReports records reports into an archiver alongside the
// canonical report/export blobs (wall times zeroed, as the CLIs do)
// and an optional journal artifact, writes the archive, and returns
// the manifest's bytes.
func archiveReports(t *testing.T, dir string, id Identity, reports []engine.Report, journal string) []byte {
	t.Helper()
	arc := New(dir, id)
	arc.AddFile("journal", journal)
	for i := range reports {
		reports[i].Wall = 0
		rep := reports[i]
		o := TaskOutcome{ID: rep.Task.ID, Seed: rep.Seed, Outcome: rep.Outcome, Attempts: rep.Attempts}
		if rep.Err != nil {
			o.Error = rep.Err.Error()
		}
		arc.Record(o)
	}
	var report, export bytes.Buffer
	engine.FormatText(&report, reports)
	if err := engine.WriteJSON(&export, engine.ExportMeta{BaseSeed: id.BaseSeed, Quick: id.Quick}, reports); err != nil {
		t.Fatal(err)
	}
	arc.AddBlob("report", report.Bytes())
	arc.AddBlob("export", export.Bytes())

	runDir, err := arc.Write()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(runDir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestArchiveParallelInvariance is the tentpole property at the unit
// level: the same suite archived at -parallel 1 and -parallel 8 yields
// byte-identical manifests under one RunID.
func TestArchiveParallelInvariance(t *testing.T) {
	tasks := suiteTasks()
	id := Identity{Program: "test", BaseSeed: 7, Quick: true,
		Tasks: []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}}
	cfg := engine.Config{Quick: true, Seed: 7}

	var manifests [][]byte
	for _, workers := range []int{1, 8} {
		r := &engine.Runner{Pool: engine.NewPool(workers)}
		reports := r.RunSuite(context.Background(), tasks, cfg)
		manifests = append(manifests, archiveReports(t, t.TempDir(), id, reports, ""))
	}
	if !bytes.Equal(manifests[0], manifests[1]) {
		t.Fatalf("manifest differs across parallelism:\n-- parallel 1 --\n%s\n-- parallel 8 --\n%s",
			manifests[0], manifests[1])
	}
}

// TestArchiveCrashResumeInvariance proves a crashed-and-resumed
// campaign archives the same manifest bytes as an uninterrupted run —
// including the canonical journal digest, despite the resumed journal
// holding its records in a different on-disk order — and that a task
// which needed a retry stays "retried-ok" when it is replayed.
func TestArchiveCrashResumeInvariance(t *testing.T) {
	// The retried task runs first, so the interrupted run journals it.
	tasks := append([]engine.Task{retriedTask("retried", 11)}, suiteTasks()...)
	taskIDs := []string{"retried", "alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	id := Identity{Program: "test", BaseSeed: 11, Quick: true, Tasks: taskIDs}
	cfg := engine.Config{Quick: true, Seed: 11}
	header := campaign.Header{Program: "test", BaseSeed: 11, Quick: true, Tasks: taskIDs}
	ctx := context.Background()
	runner := &engine.Runner{Timeout: 100 * time.Millisecond, MaxAttempts: 2}

	runCampaign := func(camp *campaign.Campaign, run []engine.Task, observe func(engine.Report)) []engine.Report {
		t.Helper()
		reports, err := camp.Run(ctx, run, observe, campaign.Local(runner, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if err := camp.Journal.Close(); err != nil {
			t.Fatal(err)
		}
		return reports
	}

	// Uninterrupted oracle run.
	baseJournal := filepath.Join(t.TempDir(), "base.journal")
	camp, err := campaign.New(baseJournal, header)
	if err != nil {
		t.Fatal(err)
	}
	baseReports := runCampaign(camp, tasks, nil)
	baseManifest := archiveReports(t, t.TempDir(), id, baseReports, baseJournal)

	// Interrupted run: journal only the first three outcomes, then stop
	// — the moral equivalent of the chaos crash point killing the
	// process after three journaled records.
	crashJournal := filepath.Join(t.TempDir(), "crash.journal")
	camp, err = campaign.New(crashJournal, header)
	if err != nil {
		t.Fatal(err)
	}
	runCampaign(camp, tasks[:3], nil)

	// Resume replays the three journaled tasks and runs the rest.
	camp, err = campaign.Resume(crashJournal, header)
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Replayed) != 3 {
		t.Fatalf("resumed campaign replays %d records, want 3", len(camp.Replayed))
	}
	var observed engine.Report
	resumeReports := runCampaign(camp, tasks, func(rep engine.Report) {
		if rep.Task.ID == "retried" {
			observed = rep
		}
	})
	resumeManifest := archiveReports(t, t.TempDir(), id, resumeReports, crashJournal)

	if !bytes.Equal(baseManifest, resumeManifest) {
		t.Fatalf("manifest differs across crash+resume:\n-- base --\n%s\n-- resumed --\n%s",
			baseManifest, resumeManifest)
	}
	if !observed.Replayed || observed.Outcome != "retried-ok" {
		t.Errorf("resumed run observed the retried task as %q (replayed %v), want a replayed retried-ok",
			observed.Outcome, observed.Replayed)
	}
	m, err := ReadManifest(bytes.NewReader(resumeManifest))
	if err != nil {
		t.Fatal(err)
	}
	var retried TaskOutcome
	for _, o := range m.Outcomes {
		if o.ID == "retried" {
			retried = o
		}
	}
	if retried.Outcome != "retried-ok" || retried.Attempts != 2 {
		t.Errorf("manifest lists the retried task as %+v, want retried-ok after 2 attempts", retried)
	}
}

// TestArchiverNilSafe: a nil archiver (no -archive flag) absorbs every
// call, matching the repo's nil-safe sink idiom.
func TestArchiverNilSafe(t *testing.T) {
	var arc *Archiver
	arc.Record(TaskOutcome{ID: "x"})
	arc.AddFile("ledger", "/nonexistent")
	arc.AddBlob("report", []byte("x"))
	arc.SetBreakers(nil)
	if got := arc.RunID(); got != "" {
		t.Fatalf("nil archiver RunID = %q, want empty", got)
	}
	dir, err := arc.Write()
	if err != nil || dir != "" {
		t.Fatalf("nil archiver Write = (%q, %v), want no-op", dir, err)
	}
}
