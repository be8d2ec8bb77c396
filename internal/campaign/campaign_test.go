package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"branchscope/internal/engine"
)

// escRes is a deterministic Result whose text and rows exercise JSON
// HTML escaping (<, >, &, quotes) — the byte-fidelity hazard of the
// replay path.
type escRes struct{ seed uint64 }

func (r escRes) String() string {
	return fmt.Sprintf("value <%d> & \"done\"\n", r.seed%97)
}
func (r escRes) Rows() []engine.Row {
	return []engine.Row{
		{engine.F("n", r.seed%97), engine.F("label", fmt.Sprintf("<%d> & \"x\"", r.seed%7))},
		{engine.F("n", r.seed%13), engine.F("label", "plain")},
	}
}

// nilRowsRes has String output but null rows — the nil-vs-empty
// round-trip case.
type nilRowsRes struct{}

func (nilRowsRes) String() string     { return "no rows here\n" }
func (nilRowsRes) Rows() []engine.Row { return nil }

func testTasks() []engine.Task {
	mk := func(id string) engine.Task {
		return engine.Task{ID: id, Artifact: "T", Description: "campaign test " + id,
			Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				return escRes{seed: cfg.Seed}, nil
			}}
	}
	tasks := []engine.Task{mk("t0"), mk("t1"), mk("t2"), mk("t3"), mk("t4")}
	tasks = append(tasks, engine.Task{ID: "t5", Artifact: "T", Description: "nil rows",
		Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			return nilRowsRes{}, nil
		}})
	return tasks
}

func taskIDs(tasks []engine.Task) []string {
	ids := make([]string, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID
	}
	return ids
}

// render produces the deterministic text + JSON export of a report
// slice, with the nondeterministic wall time zeroed as campaign mode
// does.
func render(t *testing.T, reports []engine.Report) (string, string) {
	t.Helper()
	for i := range reports {
		reports[i].Wall = 0
	}
	var txt, js bytes.Buffer
	engine.FormatText(&txt, reports)
	if err := engine.WriteJSON(&js, engine.ExportMeta{BaseSeed: 42, Quick: true}, reports); err != nil {
		t.Fatal(err)
	}
	return txt.String(), js.String()
}

// TestCrashResumeByteIdentical is the tentpole acceptance test: a run
// killed after its third journaled outcome — with a torn partial
// record appended, as a real mid-write crash would leave — and then
// resumed at a different parallelism produces byte-identical text and
// JSON exports to a run that was never interrupted.
func TestCrashResumeByteIdentical(t *testing.T) {
	tasks := testTasks()
	h := Header{Program: "test", BaseSeed: 42, Quick: true, Tasks: taskIDs(tasks)}
	cfg := engine.Config{Quick: true, Seed: 42}
	dir := t.TempDir()

	// Baseline: an uninterrupted campaign at -parallel 1.
	basePath := filepath.Join(dir, "base.journal")
	baseCamp, err := New(basePath, h)
	if err != nil {
		t.Fatal(err)
	}
	baseReports, err := baseCamp.Run(context.Background(), tasks, nil, Local(&engine.Runner{}, cfg))
	if err != nil {
		t.Fatal(err)
	}
	baseCamp.Journal.Close()
	baseTxt, baseJSON := render(t, baseReports)
	if !strings.Contains(baseJSON, `\u003c`) {
		t.Fatalf("test rows don't exercise HTML escaping:\n%s", baseJSON)
	}

	// Crashed run: sequential, killed (via context teardown, standing in
	// for os.Exit) right after the third journaled outcome.
	crashPath := filepath.Join(dir, "crash.journal")
	crashCamp, err := New(crashPath, h)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	crashCamp.CrashPoint.After = 3
	crashCamp.CrashPoint.Fn = cancel
	if _, err := crashCamp.Run(ctx, tasks, nil, Local(&engine.Runner{}, cfg)); err != nil {
		t.Fatal(err)
	}
	crashCamp.Journal.Close()
	// A real SIGKILL can additionally tear the in-flight append.
	f, err := os.OpenFile(crashPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"sum":"crc32:00000000","task":{"id":"t9","outco`)
	f.Close()

	_, recs, torn, err := Load(crashPath)
	if err != nil {
		t.Fatalf("torn journal must still load: %v", err)
	}
	if !torn {
		t.Error("torn tail not reported")
	}
	completed := 0
	for _, r := range recs {
		if r.Completed() {
			completed++
		}
	}
	if completed != 3 {
		t.Fatalf("crashed journal holds %d completed records, want 3", completed)
	}

	// Resume at -parallel 4: replay the three, re-run the rest.
	resumed, err := Resume(crashPath, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Replayed) != 3 {
		t.Fatalf("resume replayed %d tasks, want 3", len(resumed.Replayed))
	}
	var replayedSeen []string
	runner := &engine.Runner{
		Pool: engine.NewPool(4),
		OnDone: func(rep engine.Report) {
			if rep.Replayed {
				replayedSeen = append(replayedSeen, rep.Task.ID)
				if o := rep.Outcome; o != "ok" {
					t.Errorf("replayed report outcome = %q, want the recorded ok", o)
				}
			}
		},
	}
	resReports, err := resumed.Run(context.Background(), tasks, runner.OnDone, Local(runner, cfg))
	if err != nil {
		t.Fatal(err)
	}
	resumed.Journal.Close()
	if len(replayedSeen) != 3 {
		t.Errorf("OnDone saw %d replayed reports, want 3 (got %v)", len(replayedSeen), replayedSeen)
	}

	resTxt, resJSON := render(t, resReports)
	if resTxt != baseTxt {
		t.Errorf("resumed text differs from uninterrupted run:\n--- base ---\n%s\n--- resumed ---\n%s", baseTxt, resTxt)
	}
	if resJSON != baseJSON {
		t.Errorf("resumed JSON differs from uninterrupted run:\n--- base ---\n%s\n--- resumed ---\n%s", baseJSON, resJSON)
	}

	// The compacted journal is clean: a second resume sees no torn tail
	// and every task completed.
	_, recs, torn, err = Load(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Error("journal still torn after resume compaction")
	}
	if len(recs) != len(tasks) {
		t.Errorf("final journal holds %d records, want %d", len(recs), len(tasks))
	}
}

// TestResumeCompletedRunReplaysEverything: resuming a finished journal
// runs nothing and still renders identically.
func TestResumeCompletedRunReplaysEverything(t *testing.T) {
	tasks := testTasks()
	h := Header{Program: "test", BaseSeed: 42, Quick: true, Tasks: taskIDs(tasks)}
	cfg := engine.Config{Quick: true, Seed: 42}
	path := filepath.Join(t.TempDir(), "done.journal")

	camp, err := New(path, h)
	if err != nil {
		t.Fatal(err)
	}
	baseReports, err := camp.Run(context.Background(), tasks, nil, Local(&engine.Runner{}, cfg))
	if err != nil {
		t.Fatal(err)
	}
	camp.Journal.Close()
	baseTxt, baseJSON := render(t, baseReports)

	resumed, err := Resume(path, h)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	wrapped := make([]engine.Task, len(tasks))
	copy(wrapped, tasks)
	for i := range wrapped {
		inner := wrapped[i].Run
		wrapped[i].Run = func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			ran++
			return inner(ctx, cfg)
		}
	}
	resReports, err := resumed.Run(context.Background(), wrapped, nil, Local(&engine.Runner{}, cfg))
	if err != nil {
		t.Fatal(err)
	}
	resumed.Journal.Close()
	if ran != 0 {
		t.Errorf("%d tasks re-ran on a completed journal", ran)
	}
	resTxt, resJSON := render(t, resReports)
	if resTxt != baseTxt || resJSON != baseJSON {
		t.Error("full replay render differs from the original run")
	}
}

// TestResumeRejectsMismatchedHeader: a journal from a different seed,
// scale, program or task list must not be spliced into this run.
func TestResumeRejectsMismatchedHeader(t *testing.T) {
	tasks := testTasks()
	h := Header{Program: "test", BaseSeed: 42, Quick: true, Tasks: taskIDs(tasks)}
	path := filepath.Join(t.TempDir(), "h.journal")
	camp, err := New(path, h)
	if err != nil {
		t.Fatal(err)
	}
	camp.Journal.Close()

	cases := []struct {
		name string
		want Header
	}{
		{"seed", Header{Program: "test", BaseSeed: 43, Quick: true, Tasks: h.Tasks}},
		{"quick", Header{Program: "test", BaseSeed: 42, Quick: false, Tasks: h.Tasks}},
		{"program", Header{Program: "other", BaseSeed: 42, Quick: true, Tasks: h.Tasks}},
		{"tasks", Header{Program: "test", BaseSeed: 42, Quick: true, Tasks: h.Tasks[:3]}},
	}
	for _, tc := range cases {
		if _, err := Resume(path, tc.want); err == nil {
			t.Errorf("%s mismatch accepted", tc.name)
		}
	}
	if _, err := Resume(path, h); err != nil {
		t.Errorf("matching header rejected: %v", err)
	}
}

// TestResumeRejectsForeignRunID: resuming under a different causal run
// identity is refused, and the refusal names both run IDs so the
// operator can see exactly which journal they grabbed and which run
// they are in.
func TestResumeRejectsForeignRunID(t *testing.T) {
	tasks := testTasks()
	h := Header{RunID: "bsr-aaaaaaaaaaaaaaaa", Program: "test", BaseSeed: 42, Quick: true, Tasks: taskIDs(tasks)}
	path := filepath.Join(t.TempDir(), "rid.journal")
	camp, err := New(path, h)
	if err != nil {
		t.Fatal(err)
	}
	camp.Journal.Close()

	want := h
	want.RunID = "bsr-bbbbbbbbbbbbbbbb"
	_, err = Resume(path, want)
	if err == nil {
		t.Fatal("foreign run ID accepted")
	}
	for _, id := range []string{h.RunID, want.RunID} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("refusal does not mention run ID %s: %v", id, err)
		}
	}

	// Either side lacking an identity is tolerated (pre-identity
	// journals stay resumable).
	blank := h
	blank.RunID = ""
	if _, err := Resume(path, blank); err != nil {
		t.Errorf("identity-less resume of an identified journal rejected: %v", err)
	}
}

// TestLoadRejectsTornMiddleRecord: a truncated record with valid
// content after it is mid-file damage and must fail loudly — only a
// torn *final* line (crash mid-append) may be dropped.
func TestLoadRejectsTornMiddleRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	j, err := Create(path, Header{Program: "test", Tasks: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(TaskRecord{ID: "a", Outcome: "ok", ResultText: "result a\n"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(TaskRecord{ID: "b", Outcome: "ok", ResultText: "result b\n"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// Tear record "a" in half, keeping record "b" intact after it.
	lines[1] = lines[1][:len(lines[1])/2]
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Load(path); err == nil {
		t.Fatal("torn middle record loaded without error (silent truncation)")
	}
}

// FuzzLoadTornMiddleRecord drives the mid-journal damage invariant: cut
// an arbitrary byte range out of a middle line and Load must either
// fail loudly or (when the cut removed nothing) return every record —
// never silently return a subset from a damaged non-final line.
func FuzzLoadTornMiddleRecord(f *testing.F) {
	f.Add(uint8(0), uint16(10), uint16(20))
	f.Add(uint8(1), uint16(0), uint16(1))
	f.Add(uint8(0), uint16(40), uint16(4))
	f.Add(uint8(1), uint16(60), uint16(500))
	f.Fuzz(func(t *testing.T, which uint8, start, n uint16) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		j, err := Create(path, Header{Program: "fuzz", Tasks: []string{"a", "b", "c"}})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "b", "c"} {
			if err := j.Append(TaskRecord{ID: id, Outcome: "ok", ResultText: "result " + id + "\n"}); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(data, []byte("\n"))
		// lines: header, a, b, c, "" — damage record a or b, never the
		// final record (a torn tail is legitimately dropped).
		idx := 1 + int(which)%2
		line := lines[idx]
		lo := int(start) % (len(line) + 1)
		hi := lo + int(n)
		if hi > len(line) {
			hi = len(line)
		}
		mutated := append(append([]byte{}, line[:lo]...), line[hi:]...)
		lines[idx] = mutated
		if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
			t.Fatal(err)
		}

		_, recs, _, err := Load(path)
		switch {
		case lo == hi:
			// Nothing removed: the journal is intact and every record
			// must come back.
			if err != nil {
				t.Fatalf("unmodified journal failed to load: %v", err)
			}
			if len(recs) != 3 {
				t.Fatalf("unmodified journal returned %d records, want 3", len(recs))
			}
		case len(mutated) == 0:
			// The whole line vanished — indistinguishable from a journal
			// that never had it; Load cannot detect this, but it must not
			// crash or mis-parse the surviving lines.
			if err == nil && len(recs) != 2 {
				t.Fatalf("empty-line journal returned %d records, want 2", len(recs))
			}
		default:
			// A damaged non-final line with valid content after it must
			// fail loudly, never silently truncate.
			if err == nil {
				t.Fatalf("mid-journal damage (line %d, cut [%d:%d]) loaded without error: %d records", idx, lo, hi, len(recs))
			}
		}
	})
}

// TestLoadRejectsMidFileCorruption: a damaged line with valid content
// after it is real corruption, not a torn tail.
func TestLoadRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := Create(path, Header{Program: "test", Tasks: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(TaskRecord{ID: "a", Outcome: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(TaskRecord{ID: "b", Outcome: "ok"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// Flip a byte inside the first task record's payload.
	lines[1] = bytes.Replace(lines[1], []byte(`"id":"a"`), []byte(`"id":"X"`), 1)
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Load(path); err == nil {
		t.Fatal("mid-file checksum corruption loaded without error")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("error does not identify the checksum mismatch: %v", err)
	}
}

// TestCrashAfterCountsFreshOutcomesOnly: the crash point's clock is
// appends by this process, so a resumed run under the same plan makes
// the same amount of new progress before crashing again.
func TestCrashAfterCountsFreshOutcomesOnly(t *testing.T) {
	tasks := testTasks()
	h := Header{Program: "test", BaseSeed: 42, Quick: true, Tasks: taskIDs(tasks)}
	cfg := engine.Config{Quick: true, Seed: 42}
	path := filepath.Join(t.TempDir(), "cc.journal")

	camp, err := New(path, h)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	camp.CrashPoint.After = 2
	crashes := 0
	camp.CrashPoint.Fn = func() { crashes++; cancel() }
	if _, err := camp.Run(ctx, tasks, nil, Local(&engine.Runner{}, cfg)); err != nil {
		t.Fatal(err)
	}
	camp.Journal.Close()
	if crashes != 1 {
		t.Fatalf("crash fired %d times, want 1", crashes)
	}

	resumed, err := Resume(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Replayed) != 2 {
		t.Fatalf("replayed %d, want 2", len(resumed.Replayed))
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	resumed.CrashPoint.After = 2
	resumed.CrashPoint.Fn = func() { crashes++; cancel2() }
	if _, err := resumed.Run(ctx2, tasks, nil, Local(&engine.Runner{}, cfg)); err != nil {
		t.Fatal(err)
	}
	resumed.Journal.Close()
	if crashes != 2 {
		t.Fatalf("resumed run's crash point did not fire on fresh progress (crashes=%d)", crashes)
	}
	// Two fresh completions per killed run: one more resume replays 4.
	final, err := Resume(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Replayed) != 4 {
		t.Errorf("after two crashes, %d tasks completed, want 4", len(final.Replayed))
	}
	final.Journal.Close()
}

// TestJournalFailureSurfacesFromRun: appends against a closed journal
// must surface as Run's error, not vanish.
func TestJournalFailureSurfacesFromRun(t *testing.T) {
	tasks := testTasks()
	h := Header{Program: "test", BaseSeed: 42, Quick: true, Tasks: taskIDs(tasks)}
	path := filepath.Join(t.TempDir(), "f.journal")
	camp, err := New(path, h)
	if err != nil {
		t.Fatal(err)
	}
	camp.Journal.Close() // sabotage: every append now fails
	if _, err := camp.Run(context.Background(), tasks, nil, Local(&engine.Runner{}, engine.Config{Quick: true, Seed: 42})); err == nil {
		t.Fatal("Run succeeded with a dead journal")
	}
}

// TestRecordReportRoundTrip: ReportOf inverts RecordOf for every outcome
// a fresh run can journal. The rebuilt report converts back to the
// exact record (a fabric coordinator's merged report journals what its
// worker streamed), renders the same text and JSON, and keeps its
// outcome; a success comes back Replayed.
func TestRecordReportRoundTrip(t *testing.T) {
	task := testTasks()[0]
	fail := func(outcome string, attempts int, err error) engine.Report {
		return engine.Report{Task: task, Seed: 9, Attempts: attempts, Outcome: outcome, Err: err}
	}
	cases := map[string]engine.Report{
		"ok":         {Task: task, Seed: 7, Attempts: 1, Outcome: "ok", Result: escRes{seed: 7}},
		"retried-ok": {Task: task, Seed: 8, Attempts: 3, Outcome: "retried-ok", Result: escRes{seed: 8}},
		"nil rows":   {Task: task, Seed: 7, Attempts: 1, Outcome: "ok", Result: nilRowsRes{}},
		"error":      fail("error", 1, errors.New("engine: task t0: systematic <failure>")),
		"timeout":    fail("timeout", 1, fmt.Errorf("engine: task t0: %w", context.DeadlineExceeded)),
		"canceled":   fail("canceled", 1, fmt.Errorf("engine: task t0: %w", context.Canceled)),
		"panic":      fail("panic", 1, errors.New("engine: task t0 panicked: boom")),
		"exhausted":  fail("exhausted", 3, fmt.Errorf("engine: task t0: %w", context.DeadlineExceeded)),
		"skipped":    engine.SkippedBreakerReport(task, 9),
	}
	for name, rep := range cases {
		rec := RecordOf(rep)
		back := ReportOf(task, rec)
		if got := RecordOf(back); !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: record does not round-trip:\n got %+v\nwant %+v", name, got, rec)
		}
		wantTxt, wantJSON := render(t, []engine.Report{rep})
		gotTxt, gotJSON := render(t, []engine.Report{back})
		if gotTxt != wantTxt || gotJSON != wantJSON {
			t.Errorf("%s: rebuilt report renders differently:\n%s%s\nwant:\n%s%s", name, gotTxt, gotJSON, wantTxt, wantJSON)
		}
		if back.Outcome != rep.Outcome || back.Replayed != (rep.Err == nil) {
			t.Errorf("%s: rebuilt outcome = %q (replayed %v), want %q (replayed %v)",
				name, back.Outcome, back.Replayed, rep.Outcome, rep.Err == nil)
		}
	}
}
