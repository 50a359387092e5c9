package fabric

import (
	"context"
	"errors"
	"slices"
	"sync"
)

// Priority orders admission: a PriorityRun waiter is granted a slot
// before any PrioritySweep waiter. These two are the only values.
type Priority int

// The fabric's two traffic classes. Interactive single runs jump ahead
// of batch sweeps so a sweep storm cannot starve the low-latency path —
// the SLO gate measures cached-run p99 under exactly that contention.
const (
	PrioritySweep Priority = 0
	PriorityRun   Priority = 1
)

// Admission errors.
var (
	// ErrQueueFull refuses an arrival when the wait queue is at capacity;
	// the HTTP layer maps it to 429 + Retry-After.
	ErrQueueFull = errors.New("fabric: admission queue full")
	// ErrDraining sheds arrivals and waiters while the router shuts down;
	// the HTTP layer maps it to 503 + Retry-After.
	ErrDraining = errors.New("fabric: router draining")
)

// Queue is the fabric's bounded two-class admission queue: up to active
// slots execute concurrently, up to waiting arrivals queue beyond that
// in one FIFO per Priority (runs before sweeps, arrival order within a
// class), and everything past both bounds is refused immediately — load
// the fabric cannot absorb is pushed back to clients as backpressure
// instead of piling up as latent latency. Drain sheds all waiters for
// graceful shutdown. Safe for concurrent use.
type Queue struct {
	mu       sync.Mutex
	active   int
	maxAct   int
	maxWait  int
	draining bool
	waiting  [2][]*waiter // indexed by Priority
}

// waiter is one queued arrival. grant/shed are resolved under the
// queue's lock, then signalled by closing ready.
type waiter struct {
	ready   chan struct{}
	granted bool
}

// NewQueue builds a Queue admitting active concurrent slots with a wait
// room of waiting arrivals (values < 1 are raised to 1).
func NewQueue(active, waiting int) *Queue {
	if active < 1 {
		active = 1
	}
	if waiting < 1 {
		waiting = 1
	}
	return &Queue{maxAct: active, maxWait: waiting}
}

// Acquire admits one unit of work: it returns a release function once a
// slot is granted, ErrQueueFull if the wait room is at capacity,
// ErrDraining during shutdown, or ctx's error if the caller gives up
// while queued. The release function must be called exactly once when
// the work finishes; it hands the slot to the oldest PriorityRun waiter,
// else the oldest PrioritySweep waiter.
func (q *Queue) Acquire(ctx context.Context, prio Priority) (func(), error) {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return nil, ErrDraining
	}
	if q.active < q.maxAct {
		q.active++
		q.mu.Unlock()
		return q.releaseFunc(), nil
	}
	if q.waitingLocked() >= q.maxWait {
		q.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &waiter{ready: make(chan struct{})}
	q.waiting[prio] = append(q.waiting[prio], w)
	q.mu.Unlock()

	select {
	case <-w.ready:
		// Granted, or shed by Drain.
		if !w.granted {
			return nil, ErrDraining
		}
		return q.releaseFunc(), nil
	case <-ctx.Done():
		q.mu.Lock()
		if i := slices.Index(q.waiting[prio], w); i >= 0 {
			// Still queued: withdraw.
			q.waiting[prio] = slices.Delete(q.waiting[prio], i, i+1)
			q.mu.Unlock()
			return nil, ctx.Err()
		}
		q.mu.Unlock()
		// Resolved concurrently with the cancellation: if a slot was
		// granted it must flow back or it would leak.
		<-w.ready
		if w.granted {
			q.releaseFunc()()
		}
		return nil, ctx.Err()
	}
}

// releaseFunc builds the one-shot slot release.
func (q *Queue) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			q.mu.Lock()
			defer q.mu.Unlock()
			for _, p := range []Priority{PriorityRun, PrioritySweep} {
				if fifo := q.waiting[p]; len(fifo) > 0 {
					// The slot transfers: active stays constant.
					w := fifo[0]
					q.waiting[p] = slices.Delete(fifo, 0, 1)
					w.granted = true
					close(w.ready)
					return
				}
			}
			q.active--
		})
	}
}

// Drain flips the queue into shutdown: every queued waiter is shed with
// ErrDraining (their clients can retry against another router) and all
// future Acquires are refused. Work already holding slots finishes
// normally — graceful shedding, not abortion.
func (q *Queue) Drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.draining = true
	for p, fifo := range q.waiting {
		for _, w := range fifo {
			close(w.ready) // granted stays false
		}
		q.waiting[p] = nil
	}
}

// Depth snapshots the queue (for the router's health endpoint).
func (q *Queue) Depth() (active, waiting int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.active, q.waitingLocked()
}

// waitingLocked counts the queued waiters; q.mu must be held.
func (q *Queue) waitingLocked() int {
	return len(q.waiting[PriorityRun]) + len(q.waiting[PrioritySweep])
}
