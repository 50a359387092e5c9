package runner

import (
	"context"
	"errors"
	"sync"
)

// Flight collapses concurrent identical work: while one caller (the
// owner) runs fn for a key, later callers of the same key wait and share
// the owner's result instead of running fn again. The Runner dedups
// simulation points with it, and the fabric router dedups forwards, so a
// stampede of identical requests costs one computation.
//
// A waiter whose owner failed with context.Canceled or DeadlineExceeded
// while the waiter's own context is still live does not inherit that
// failure: it loops and becomes the next owner, so one impatient caller
// cannot poison everyone behind it. A waiter whose own context ends
// returns ctx.Err() itself without waiting for the owner. The zero value
// is ready to use.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

// flightCall is one in-flight execution.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do runs fn for key, or waits for the caller already running it and
// returns that caller's result.
func (g *Flight[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, err error) {
	for {
		g.mu.Lock()
		if c, ok := g.m[key]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return v, ctx.Err()
			}
			if c.err != nil && ctx.Err() == nil &&
				(errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
				continue // the owner's cancellation, not ours: retry as owner
			}
			return c.val, c.err
		}
		if g.m == nil {
			g.m = make(map[string]*flightCall[V])
		}
		c := &flightCall[V]{done: make(chan struct{})}
		g.m[key] = c
		g.mu.Unlock()

		c.val, c.err = fn()
		// Deregister before signalling: a caller arriving after this
		// starts afresh, and its fn finds the owner's stored result.
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
		return c.val, c.err
	}
}
