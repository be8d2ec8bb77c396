package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestMapMidRunCancellation: canceling the context mid-Map lets the
// in-flight items finish, marks every queued-but-unstarted item with
// the cancellation error without running it, and — through RunSuite —
// settles those tasks with the "canceled" outcome. A goroutine-count
// check proves the pool's workers all exit: a canceled suite must not
// strand blocked goroutines behind the semaphore.
func TestMapMidRunCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()

	pool := NewPool(3) // caller + 2 worker slots
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const n = 8
	const inflight = 3
	started := make(chan struct{}, inflight)
	release := make(chan struct{})
	go func() {
		// Wait for every worker slot (and the caller) to be occupied,
		// cancel mid-Map, then unblock the running items.
		for i := 0; i < inflight; i++ {
			<-started
		}
		cancel()
		close(release)
	}()

	tasks := make([]Task, n)
	var ran [n]bool
	for i := range tasks {
		i := i
		tasks[i] = Task{
			ID:       fmt.Sprintf("cancel-%d", i),
			Artifact: "test",
			Run: func(context.Context, Config) (Result, error) {
				ran[i] = true
				started <- struct{}{}
				<-release
				return textResult("done"), nil
			},
		}
	}

	r := &Runner{Pool: pool}
	reports := r.RunSuite(ctx, tasks, Config{Seed: 7})
	if len(reports) != n {
		t.Fatalf("got %d reports, want %d", len(reports), n)
	}
	// The items in flight at cancellation are abandoned and report
	// canceled; everything still queued must settle canceled WITHOUT
	// ever running. Either way every report keeps its task identity and
	// derived seed — a canceled suite still renders deterministically.
	startedCount := 0
	for i, rep := range reports {
		if ran[i] {
			startedCount++
		}
		if got := rep.Outcome; got != "canceled" {
			t.Errorf("task %d: outcome %q, want canceled (err %v)", i, got, rep.Err)
		}
		if !errors.Is(rep.Err, context.Canceled) {
			t.Errorf("task %d: canceled report should wrap context.Canceled, got %v", i, rep.Err)
		}
		if rep.Seed != DeriveSeed(7, rep.Task.ID) {
			t.Errorf("task %d: canceled report lost its derived seed", i)
		}
	}
	if startedCount != inflight {
		t.Errorf("%d tasks started, want exactly the %d in flight at cancellation — queued tasks must not run", startedCount, inflight)
	}

	// No goroutine may outlive the suite: poll briefly (the last worker
	// needs a moment between its final send and exiting).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after canceled Map: %d running, baseline %d\n%s",
				g, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
