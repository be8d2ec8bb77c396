package engine

import (
	"context"
	"sync"
)

// Pool bounds the number of goroutines the engine runs concurrently.
// The zero/nil Pool is valid and means "no extra workers": Map runs
// sequentially in the calling goroutine.
//
// The pool uses caller-runs overflow: Map never blocks waiting for a
// worker slot — when none is free the calling goroutine executes the
// item itself. The caller therefore always counts as one worker, and a
// pool created with NewPool(n) yields at most n concurrently running
// items. Because acquisition never blocks, nested Map calls over the
// same pool (an experiment fanning out per-CPU-model sub-runs while the
// suite runner fans out experiments) cannot deadlock.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool allowing up to workers concurrently running
// items (including the calling goroutine). workers <= 1 returns nil:
// fully sequential execution.
func NewPool(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	return &Pool{sem: make(chan struct{}, workers-1)}
}

// poolKey carries the process's pool through contexts so nested code
// (experiments decomposing into per-model units) inherits the same
// concurrency bound the CLI configured, without global state.
type poolKey struct{}

// WithPool returns a context carrying p. A nil p is valid (sequential).
func WithPool(ctx context.Context, p *Pool) context.Context {
	return context.WithValue(ctx, poolKey{}, p)
}

// PoolFrom extracts the pool installed by WithPool; nil (sequential)
// when the context carries none.
func PoolFrom(ctx context.Context) *Pool {
	p, _ := ctx.Value(poolKey{}).(*Pool)
	return p
}

// Map runs fn(0..n-1) with the parallelism bound of the context's pool
// and returns the results in index order. Determinism contract: the
// result slice depends only on fn, never on scheduling. If any fn
// returns an error, Map returns the error of the lowest index alongside
// the partial results. A canceled context stops new items from starting
// (running items finish); canceled items report ctx.Err().
func Map[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	p := PoolFrom(ctx)
	if p == nil {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			results[i], errs[i] = fn(i)
		}
		return results, firstError(errs)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		i := i
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.sem }()
				results[i], errs[i] = fn(i)
			}()
		default:
			// No worker slot free: the caller is the worker.
			results[i], errs[i] = fn(i)
		}
	}
	wg.Wait()
	return results, firstError(errs)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
