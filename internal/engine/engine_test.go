package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDeriveSeedProperties(t *testing.T) {
	// Distinct label paths must yield distinct streams.
	seen := map[uint64][]string{}
	cases := [][]string{
		{"fig2"}, {"table1"}, {"table1", "Skylake"}, {"table1", "Haswell"},
		{"table2", "Skylake", "isolated"}, {"table2", "Skylake", "with noise"},
		{"a", "bc"}, {"ab", "c"}, // NUL separation keeps these apart
	}
	for _, labels := range cases {
		s := DeriveSeed(1, labels...)
		if prev, dup := seen[s]; dup {
			t.Errorf("DeriveSeed(1, %v) == DeriveSeed(1, %v)", labels, prev)
		}
		seen[s] = labels
	}
	// Deterministic.
	if DeriveSeed(7, "x", "y") != DeriveSeed(7, "x", "y") {
		t.Error("DeriveSeed not deterministic")
	}
	// Base seed must matter.
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Error("base seed ignored")
	}
}

func TestRowJSONPreservesKeyOrder(t *testing.T) {
	row := Row{F("zeta", 1), F("alpha", "two"), F("mid", 3.5), F("flag", true)}
	b, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"zeta":1,"alpha":"two","mid":3.5,"flag":true}`
	if string(b) != want {
		t.Errorf("Row JSON = %s, want %s", b, want)
	}
	// Round-trips as a JSON object.
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("row is not a JSON object: %v", err)
	}
}

func TestMapSequentialWithoutPool(t *testing.T) {
	var order []int
	got, err := Map(context.Background(), 5, func(i int) (int, error) {
		order = append(order, i) // safe: nil pool runs in the caller
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Errorf("got[%d] = %d", i, v)
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential path ran out of order: %v", order)
		}
	}
}

func TestMapParallelPreservesIndexOrder(t *testing.T) {
	ctx := WithPool(context.Background(), NewPool(4))
	got, err := Map(ctx, 64, func(i int) (int, error) {
		return i * 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*3 {
			t.Errorf("got[%d] = %d, want %d", i, v, i*3)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	ctx := WithPool(context.Background(), NewPool(workers))
	var cur, max atomic.Int64
	var mu sync.Mutex
	_, err := Map(ctx, 40, func(i int) (int, error) {
		n := cur.Add(1)
		mu.Lock()
		if n > max.Load() {
			max.Store(n)
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Errorf("observed %d concurrent items, pool bound is %d", m, workers)
	}
}

func TestMapNestedDoesNotDeadlock(t *testing.T) {
	// Nested Map over the same pool: caller-runs overflow must keep this
	// from deadlocking even when every slot is held by an outer item.
	ctx := WithPool(context.Background(), NewPool(2))
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Map(ctx, 8, func(i int) ([]int, error) {
			return Map(ctx, 8, func(j int) (int, error) {
				return i*8 + j, nil
			})
		})
		if err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested Map deadlocked")
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	errBoom := errors.New("boom")
	_, err := Map(context.Background(), 5, func(i int) (int, error) {
		if i == 1 || i == 3 {
			return 0, fmt.Errorf("item %d: %w", i, errBoom)
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "item 1") {
		t.Errorf("err = %v, want the lowest-index failure", err)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, err := Map(ctx, 10, func(i int) (int, error) {
		ran++
		if i == 2 {
			cancel()
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("canceled Map returned nil error")
	}
	if ran > 3 {
		t.Errorf("%d items ran after cancellation", ran)
	}
}

func TestPoolWorkers(t *testing.T) {
	if NewPool(1) != nil || NewPool(0) != nil {
		t.Error("NewPool(<=1) must be the nil (sequential) pool")
	}
	if w := cap(NewPool(8).sem) + 1; w != 8 {
		t.Errorf("workers = %d, want 8 (the caller plus 7 helpers)", w)
	}
	if p := PoolFrom(context.Background()); p != nil {
		t.Error("PoolFrom of a bare context must be nil")
	}
}

// textResult is a trivial Result for runner tests.
type textResult string

func (r textResult) String() string { return string(r) + "\n" }
func (r textResult) Rows() []Row    { return []Row{{F("value", string(r))}} }

func okTask(id string) Task {
	return Task{
		ID: id, Artifact: "T", Description: "test task",
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			return textResult(fmt.Sprintf("%s seed=%d quick=%v", id, cfg.Seed, cfg.Quick)), nil
		},
	}
}

func TestRunnerDerivesTaskSeed(t *testing.T) {
	r := &Runner{}
	rep := r.RunTask(context.Background(), okTask("alpha"), Config{Seed: 9})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Seed != DeriveSeed(9, "alpha") {
		t.Errorf("report seed %d, want DeriveSeed(9, alpha)", rep.Seed)
	}
	if !strings.Contains(rep.Result.String(), fmt.Sprint(rep.Seed)) {
		t.Error("task did not receive the derived seed")
	}
}

func TestRunnerPanicIsolation(t *testing.T) {
	tasks := []Task{
		okTask("before"),
		{
			ID: "bad", Artifact: "T", Description: "panics",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				panic("deliberate test panic")
			},
		},
		okTask("after"),
	}
	r := &Runner{}
	reports := r.RunSuite(context.Background(), tasks, Config{Seed: 1})
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	if reports[0].Err != nil || reports[2].Err != nil {
		t.Error("healthy tasks affected by a panicking sibling")
	}
	bad := reports[1]
	if bad.Err == nil || !bad.Panicked {
		t.Fatalf("panic not reported: %+v", bad)
	}
	if !strings.Contains(bad.Err.Error(), "deliberate test panic") {
		t.Errorf("panic message lost: %v", bad.Err)
	}
	if bad.Result != nil {
		t.Error("failed task carries a result")
	}
	if Failed(reports) != 1 {
		t.Errorf("Failed = %d, want 1", Failed(reports))
	}
}

func TestRunnerTimeoutAbandonsStuckTask(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	stuck := Task{
		ID: "stuck", Artifact: "T", Description: "ignores ctx",
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			<-block // never observes ctx
			return textResult("late"), nil
		},
	}
	r := &Runner{Timeout: 20 * time.Millisecond}
	rep := r.RunTask(context.Background(), stuck, Config{})
	if rep.Err == nil || !errors.Is(rep.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", rep.Err)
	}
}

func TestRunSuiteCanceledTasksReportedFailed(t *testing.T) {
	// Every task must yield a real report even when the suite context is
	// canceled before (or while) it runs: unstarted tasks carry their
	// identity and a cancellation error, never a zero-value slot.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := []Task{okTask("a"), okTask("b"), okTask("c")}
	r := &Runner{}
	reports := r.RunSuite(ctx, tasks, Config{Seed: 4})
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	for i, rep := range reports {
		if rep.Task.ID != tasks[i].ID {
			t.Errorf("report %d lost its task identity: %+v", i, rep)
		}
		if rep.Err == nil || !errors.Is(rep.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", rep.Task.ID, rep.Err)
		}
		if rep.Seed != DeriveSeed(4, tasks[i].ID) {
			t.Errorf("%s: seed not derived", rep.Task.ID)
		}
	}
	if Failed(reports) != 3 {
		t.Errorf("Failed = %d, want 3", Failed(reports))
	}
	var buf bytes.Buffer
	FormatText(&buf, reports)
	if strings.Contains(buf.String(), "===  ()") || strings.Contains(buf.String(), "<nil>") {
		t.Errorf("canceled tasks render as empty slots:\n%s", buf.String())
	}
}

func TestRunnerOnDoneObservesEveryReport(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	r := &Runner{
		Pool: NewPool(4),
		OnDone: func(rep Report) {
			mu.Lock()
			seen[rep.Task.ID] = true
			mu.Unlock()
		},
	}
	tasks := []Task{okTask("a"), okTask("b"), okTask("c")}
	r.RunSuite(context.Background(), tasks, Config{Seed: 2})
	for _, id := range []string{"a", "b", "c"} {
		if !seen[id] {
			t.Errorf("OnDone missed %s", id)
		}
	}
}

func TestSuiteOutputIdenticalAcrossParallelism(t *testing.T) {
	tasks := []Task{okTask("a"), okTask("b"), okTask("c"), okTask("d")}
	render := func(workers int) string {
		r := &Runner{Pool: NewPool(workers)}
		var buf bytes.Buffer
		FormatText(&buf, r.RunSuite(context.Background(), tasks, Config{Seed: 5}))
		return buf.String()
	}
	seq := render(1)
	for _, w := range []int{2, 8} {
		if par := render(w); par != seq {
			t.Errorf("output at %d workers differs from sequential:\n%s\nvs\n%s", w, par, seq)
		}
	}
	if !strings.Contains(seq, "=== a (T): test task ===") {
		t.Errorf("unexpected FormatText layout:\n%s", seq)
	}
}

func TestWriteJSONShape(t *testing.T) {
	r := &Runner{}
	reports := r.RunSuite(context.Background(), []Task{okTask("a"), {
		ID: "fail", Artifact: "T", Description: "fails",
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			return nil, errors.New("no data")
		},
	}}, Config{Seed: 3, Quick: true})
	for i := range reports {
		reports[i].Wall = 0 // the one nondeterministic field
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, ExportMeta{BaseSeed: 3, Quick: true}, reports); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Schema      string `json:"schema"`
		BaseSeed    uint64 `json:"base_seed"`
		Quick       bool   `json:"quick"`
		Experiments []struct {
			ID    string           `json:"id"`
			Seed  uint64           `json:"seed"`
			Error string           `json:"error"`
			Rows  []map[string]any `json:"rows"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != "branchscope.experiments/v1" || out.BaseSeed != 3 || !out.Quick {
		t.Errorf("bad export meta: %+v", out)
	}
	if len(out.Experiments) != 2 {
		t.Fatalf("experiments = %d", len(out.Experiments))
	}
	if out.Experiments[0].Error != "" || len(out.Experiments[0].Rows) != 1 {
		t.Errorf("ok task exported wrong: %+v", out.Experiments[0])
	}
	if out.Experiments[1].Error != "no data" || len(out.Experiments[1].Rows) != 0 {
		t.Errorf("failed task exported wrong: %+v", out.Experiments[1])
	}
}

func TestRunnerOnStartObservesDerivedSeed(t *testing.T) {
	var mu sync.Mutex
	started := map[string]uint64{}
	r := &Runner{
		Pool: NewPool(4),
		OnStart: func(task Task, seed uint64) {
			mu.Lock()
			started[task.ID] = seed
			mu.Unlock()
		},
	}
	tasks := []Task{okTask("a"), okTask("b"), okTask("c")}
	reports := r.RunSuite(context.Background(), tasks, Config{Seed: 7})
	for _, rep := range reports {
		seed, ok := started[rep.Task.ID]
		if !ok {
			t.Errorf("OnStart missed %s", rep.Task.ID)
			continue
		}
		if seed != rep.Seed || seed != DeriveSeed(7, rep.Task.ID) {
			t.Errorf("%s: OnStart seed = %d, report seed = %d", rep.Task.ID, seed, rep.Seed)
		}
	}
}

func TestRunSuiteCanceledTasksStillReachOnDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var mu sync.Mutex
	outcomes := map[string]string{}
	r := &Runner{OnDone: func(rep Report) {
		mu.Lock()
		outcomes[rep.Task.ID] = rep.Outcome()
		mu.Unlock()
	}}
	r.RunSuite(ctx, []Task{okTask("a"), okTask("b")}, Config{Seed: 1})
	for _, id := range []string{"a", "b"} {
		if outcomes[id] != "canceled" {
			t.Errorf("%s outcome = %q, want canceled (skipped tasks must reach OnDone)", id, outcomes[id])
		}
	}
}

func TestReportOutcome(t *testing.T) {
	cases := []struct {
		rep  Report
		want string
	}{
		{Report{}, "ok"},
		{Report{Err: errors.New("boom")}, "error"},
		{Report{Err: fmt.Errorf("task: %w", context.Canceled)}, "canceled"},
		{Report{Err: fmt.Errorf("task: %w", context.DeadlineExceeded)}, "timeout"},
		{Report{Err: errors.New("panicked"), Panicked: true}, "panic"},
		{Report{Attempts: 3}, "retried-ok"},
		{Report{Err: errors.New("boom"), Attempts: 3, Exhausted: true}, "exhausted"},
		// A panic or cancellation trumps the retry bookkeeping.
		{Report{Err: errors.New("panicked"), Panicked: true, Attempts: 2, Exhausted: true}, "panic"},
		{Report{Err: fmt.Errorf("task: %w", context.Canceled), Attempts: 2}, "canceled"},
	}
	for _, c := range cases {
		if got := c.rep.Outcome(); got != c.want {
			t.Errorf("Outcome(%+v) = %q, want %q", c.rep, got, c.want)
		}
	}
}
