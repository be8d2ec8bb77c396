package runstore

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
		o := TaskOutcome{ID: rep.Task.ID, Seed: rep.Seed, Outcome: rep.Outcome(), Attempts: rep.Attempts}
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
// holding its records in a different on-disk order.
func TestArchiveCrashResumeInvariance(t *testing.T) {
	tasks := suiteTasks()
	taskIDs := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	id := Identity{Program: "test", BaseSeed: 11, Quick: true, Tasks: taskIDs}
	cfg := engine.Config{Quick: true, Seed: 11}
	header := campaign.Header{Program: "test", BaseSeed: 11, Quick: true, Tasks: taskIDs}
	ctx := context.Background()

	runCampaign := func(camp *campaign.Campaign, run []engine.Task) []engine.Report {
		t.Helper()
		reports, err := camp.Run(ctx, run, "", nil, campaign.Local(&engine.Runner{}, cfg))
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
	baseReports := runCampaign(camp, tasks)
	baseManifest := archiveReports(t, t.TempDir(), id, baseReports, baseJournal)

	// Interrupted run: journal only the first three outcomes, then stop
	// — the moral equivalent of the chaos crash point killing the
	// process after three journaled records.
	crashJournal := filepath.Join(t.TempDir(), "crash.journal")
	camp, err = campaign.New(crashJournal, header)
	if err != nil {
		t.Fatal(err)
	}
	runCampaign(camp, tasks[:3])

	// Resume replays the three journaled tasks and runs the rest.
	camp, err = campaign.Resume(crashJournal, header)
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Replayed) != 3 {
		t.Fatalf("resumed campaign replays %d records, want 3", len(camp.Replayed))
	}
	resumeReports := runCampaign(camp, tasks)
	resumeManifest := archiveReports(t, t.TempDir(), id, resumeReports, crashJournal)

	if !bytes.Equal(baseManifest, resumeManifest) {
		t.Fatalf("manifest differs across crash+resume:\n-- base --\n%s\n-- resumed --\n%s",
			baseManifest, resumeManifest)
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
