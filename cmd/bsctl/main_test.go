package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"branchscope/internal/engine"
	"branchscope/internal/runstore"
)

// capture runs fn with stdout and stderr redirected and returns both.
func capture(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	origOut, origErr := os.Stdout, os.Stderr
	ro, wo, perr := os.Pipe()
	if perr != nil {
		t.Fatal(perr)
	}
	re, we, perr := os.Pipe()
	if perr != nil {
		t.Fatal(perr)
	}
	os.Stdout, os.Stderr = wo, we
	err = fn()
	os.Stdout, os.Stderr = origOut, origErr
	wo.Close()
	we.Close()
	var bo, be bytes.Buffer
	io.Copy(&bo, ro)
	io.Copy(&be, re)
	return bo.String(), be.String(), err
}

// writeArchive runs a small deterministic suite at the given
// parallelism and archives it, returning the run directory.
func writeArchive(t *testing.T, workers int, seed uint64, failTask string) string {
	t.Helper()
	ids := []string{"alpha", "bravo", "charlie"}
	var tasks []engine.Task
	for _, id := range ids {
		id := id
		tasks = append(tasks, engine.Task{ID: id, Artifact: "T",
			Run: func(_ context.Context, cfg engine.Config) (engine.Result, error) {
				if id == failTask {
					return nil, fmt.Errorf("induced failure")
				}
				return litResult{id: id, seed: cfg.Seed}, nil
			}})
	}
	id := runstore.Identity{Program: "t", BaseSeed: seed, Quick: true, Tasks: ids}
	r := &engine.Runner{Pool: engine.NewPool(workers)}
	reports := r.RunSuite(context.Background(), tasks, engine.Config{Quick: true, Seed: seed})

	arc := runstore.New(t.TempDir(), id)
	for i := range reports {
		reports[i].Wall = 0
		rep := reports[i]
		o := runstore.TaskOutcome{ID: rep.Task.ID, Seed: rep.Seed, Outcome: rep.Outcome, Attempts: rep.Attempts}
		if rep.Err != nil {
			o.Error = rep.Err.Error()
		}
		arc.Record(o)
	}
	var report, export bytes.Buffer
	engine.FormatText(&report, reports)
	if err := engine.WriteJSON(&export, engine.ExportMeta{BaseSeed: seed, Quick: true, RunID: id.RunID()}, reports); err != nil {
		t.Fatal(err)
	}
	arc.AddBlob("report", report.Bytes())
	arc.AddBlob("export", export.Bytes())
	dir, err := arc.Write()
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

type litResult struct {
	id   string
	seed uint64
}

func (r litResult) String() string { return fmt.Sprintf("%s seed %d\n", r.id, r.seed) }
func (r litResult) Rows() []engine.Row {
	return []engine.Row{{engine.F("id", r.id), engine.F("seed", r.seed)}}
}

// TestDiffEmptyAcrossParallelism: the ISSUE's acceptance property at
// the bsctl level — a -parallel 1 and a -parallel 8 run of the same
// identity diff empty.
func TestDiffEmptyAcrossParallelism(t *testing.T) {
	a := writeArchive(t, 1, 7, "")
	b := writeArchive(t, 8, 7, "")
	out, _, err := capture(t, func() error {
		dirty, err := cmdDiff([]string{a, b})
		if dirty {
			t.Error("identical runs reported dirty")
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != "" {
		t.Errorf("diff of identical runs printed output:\n%s", out)
	}
}

// TestDiffFlagsDivergence: different seeds are different identities,
// and a failure shows up as an outcome/row diff, with exit-1 semantics.
func TestDiffFlagsDivergence(t *testing.T) {
	a := writeArchive(t, 1, 7, "")
	b := writeArchive(t, 1, 8, "")
	out, _, err := capture(t, func() error {
		dirty, err := cmdDiff([]string{a, b})
		if !dirty {
			t.Error("different-seed runs reported clean")
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "run_id:") {
		t.Errorf("seed divergence not reported as identity diff:\n%s", out)
	}

	c := writeArchive(t, 1, 7, "bravo")
	out, _, err = capture(t, func() error {
		dirty, err := cmdDiff([]string{a, c})
		if !dirty {
			t.Error("failing run diffed clean against passing run")
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "outcome bravo") {
		t.Errorf("induced failure not localized to its task:\n%s", out)
	}
}

// TestCheckGate: true positive on synthetic drift, false positive
// check on matching benches.
func TestCheckGate(t *testing.T) {
	dir := t.TempDir()
	baseDir := filepath.Join(dir, "base")
	if err := os.MkdirAll(baseDir, 0o755); err != nil {
		t.Fatal(err)
	}
	bench := func(path, doc string) {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bench(filepath.Join(baseDir, "BENCH_hotpath.json"), `{"speedup": 2.5, "batched_ns_per_branch": 4.0, "pass": true}`)

	good := filepath.Join(dir, "BENCH_hotpath.json")
	bench(good, `{"speedup": 2.6, "batched_ns_per_branch": 7.0, "pass": true}`)
	_, _, err := capture(t, func() error {
		dirty, err := cmdCheck([]string{"-baseline", baseDir, good})
		if dirty {
			t.Error("in-envelope candidate flagged as drift")
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	badDir := t.TempDir()
	bad := filepath.Join(badDir, "BENCH_hotpath.json")
	bench(bad, `{"speedup": 1.1, "batched_ns_per_branch": 4.0, "pass": false}`)
	out, _, err := capture(t, func() error {
		dirty, err := cmdCheck([]string{"-baseline", baseDir, bad})
		if !dirty {
			t.Error("synthetic regression passed the gate")
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DRIFT") {
		t.Errorf("drift not reported:\n%s", out)
	}

	// Disjoint metrics must fail loudly, not silently pass.
	empty := filepath.Join(t.TempDir(), "BENCH_other.json")
	bench(empty, `{"unrelated": 1}`)
	_, _, err = capture(t, func() error {
		_, err := cmdCheck([]string{"-baseline", baseDir, empty})
		return err
	})
	if err == nil {
		t.Error("check with zero shared metrics did not error")
	}
}

// TestTailTornWarning: tail prints every intact record and warns on a
// torn final line instead of failing or silently dropping it.
func TestTailTornWarning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	rec := `{"schema":"branchscope.ledger/v1","run_id":"bsr-1234","program":"t","id":"a","config":{},"base_seed":1,"seed":1,"outcome":"ok","wall_seconds":0}` + "\n"
	if err := os.WriteFile(path, []byte(rec+`{"schema":"branchscope.led`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, err := capture(t, func() error { return cmdTail([]string{path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "ok") || !strings.Contains(out, "run=bsr-1234") {
		t.Errorf("record not rendered: %q", out)
	}
	if !strings.Contains(errOut, "torn") {
		t.Errorf("torn final record not warned about: %q", errOut)
	}
}

// TestFollowRetriesTransientErrors: tail -f must survive transient
// read errors with capped doubling backoff — report the outage once,
// keep retrying, recover silently — instead of exiting on the first
// error.
func TestFollowRetriesTransientErrors(t *testing.T) {
	boom := errors.New("read /tmp/ledger.jsonl: resource temporarily unavailable")
	calls := 0
	emit := func() error {
		calls++
		if calls <= 4 {
			return boom
		}
		return nil
	}
	var sleeps []time.Duration
	sleep := func(d time.Duration) { sleeps = append(sleeps, d) }
	iterations := 0
	cont := func() bool { iterations++; return iterations <= 6 }

	_, errOut, err := capture(t, func() error {
		followLedger(emit, 100*time.Millisecond, sleep, cont)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 6 {
		t.Errorf("emit called %d times, want 6 (the loop must keep retrying)", calls)
	}
	want := []time.Duration{
		100 * time.Millisecond, // first try
		200 * time.Millisecond, // doubled after failure 1
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		100 * time.Millisecond, // success resets to the interval
	}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, sleeps[i], want[i])
		}
	}
	if got := strings.Count(errOut, "transient read error"); got != 1 {
		t.Errorf("outage reported %d times, want exactly once:\n%s", got, errOut)
	}
	if !strings.Contains(errOut, "readable again") {
		t.Errorf("recovery not reported:\n%s", errOut)
	}
}

// TestFollowBackoffCap: the retry backoff never exceeds maxTailBackoff.
func TestFollowBackoffCap(t *testing.T) {
	emit := func() error { return errors.New("still broken") }
	var last time.Duration
	sleep := func(d time.Duration) { last = d }
	iterations := 0
	cont := func() bool { iterations++; return iterations <= 20 }
	_, _, err := capture(t, func() error {
		followLedger(emit, time.Second, sleep, cont)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != maxTailBackoff {
		t.Errorf("backoff after 20 failures = %v, want capped at %v", last, maxTailBackoff)
	}
}

// TestTailTruncationRestart: a ledger that shrinks between reads (a new
// run re-created it) restarts printing from the top instead of slicing
// past the end.
func TestTailTruncationRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	rec := func(id string) string {
		return `{"schema":"branchscope.ledger/v1","program":"t","id":"` + id + `","config":{},"base_seed":1,"seed":1,"outcome":"ok","wall_seconds":0}` + "\n"
	}
	if err := os.WriteFile(path, []byte(rec("a")+rec("b")+rec("c")), 0o644); err != nil {
		t.Fatal(err)
	}
	// Drive one tail's emit twice: print the 3-record file, replace it
	// with a 1-record one, and require the second pass to restart from
	// the top instead of panicking on recs[3:].
	out, errOut, err := capture(t, func() error {
		p := &tailPrinter{path: path, follow: true}
		if err := p.emit(); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(rec("z")), 0o644); err != nil {
			return err
		}
		return p.emit()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c", "z"} {
		if !strings.Contains(out, id) {
			t.Errorf("record %q not printed:\n%s", id, out)
		}
	}
	if !strings.Contains(errOut, "truncated") {
		t.Errorf("truncation not reported:\n%s", errOut)
	}
}

// TestListAndShow smoke the render paths over a real archive.
func TestListAndShow(t *testing.T) {
	run := writeArchive(t, 1, 7, "")
	archiveRoot := filepath.Dir(run)
	out, _, err := capture(t, func() error { return cmdList([]string{archiveRoot}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "bsr-") || !strings.Contains(out, "ok=3") {
		t.Errorf("list output missing run line: %q", out)
	}
	out, _, err = capture(t, func() error { return cmdShow([]string{run}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run     bsr-", "export.json", "report.txt", "sha256:"} {
		if !strings.Contains(out, want) {
			t.Errorf("show output missing %q:\n%s", want, out)
		}
	}
}
