// Package queue provides the bounded FIFO ring buffer used for every
// architectural queue in the simulator: per-thread instruction queues,
// store address queues, fetch buffers and the memory system's request
// queues.
//
// The structures the paper sizes in Figure 2 (Instruction Queue 48 entries,
// Store Address Queue 32 entries) are hardware FIFOs with back-pressure:
// a full queue stalls the producer stage. Ring mirrors that contract —
// Push fails on a full queue rather than growing — so resource-induced
// stalls in the pipeline model are explicit.
package queue

import "fmt"

// Ring is a bounded FIFO queue with O(1) push, pop and random access by
// queue position. The zero value is unusable; create one with New.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	size int // number of elements
}

// New returns an empty ring with the given capacity. Capacity must be
// positive.
func New[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: non-positive capacity %d", capacity))
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.size }

// Full reports whether the queue is at capacity.
func (r *Ring[T]) Full() bool { return r.size == len(r.buf) }

// Free returns the number of unoccupied slots.
func (r *Ring[T]) Free() int { return len(r.buf) - r.size }

// wrap folds an index in [0, 2·cap) back into the buffer. Indexes only
// ever overshoot by less than one capacity, so a conditional subtract
// replaces the modulo division in the simulator's hottest loops.
func (r *Ring[T]) wrap(i int) int {
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// Push appends v to the tail. It reports whether the push succeeded; a
// full queue rejects the push (modelling stage back-pressure).
func (r *Ring[T]) Push(v T) bool {
	if r.Full() {
		return false
	}
	r.buf[r.wrap(r.head+r.size)] = v
	r.size++
	return true
}

// Pop removes and returns the head element. The second result is false if
// the queue is empty.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	if r.size == 0 {
		return zero, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero // release references for GC
	r.head = r.wrap(r.head + 1)
	r.size--
	return v, true
}

// Drop removes the head element without returning or zeroing it. It is
// Pop for the simulator's hottest paths, where the element is known (a
// preceding Peek) and remains reachable elsewhere, so the release-for-GC
// store would be pure overhead. It panics on an empty queue.
func (r *Ring[T]) Drop() {
	if r.size == 0 {
		panic("queue: Drop on empty queue")
	}
	r.head = r.wrap(r.head + 1)
	r.size--
}

// Peek returns the head element without removing it. The second result is
// false if the queue is empty.
func (r *Ring[T]) Peek() (T, bool) {
	var zero T
	if r.size == 0 {
		return zero, false
	}
	return r.buf[r.head], true
}

// At returns the element at queue position i (0 = head). It panics if i is
// out of range; use Len to bound iteration.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.size {
		panic(fmt.Sprintf("queue: index %d out of range (len %d)", i, r.size))
	}
	return r.buf[r.wrap(r.head+i)]
}

// Scan calls f on each element from head to tail until f returns false.
// Unlike an At loop it performs no per-element bounds check or modulo,
// which matters in the simulator's per-cycle queue walks.
func (r *Ring[T]) Scan(f func(T) bool) {
	i := r.head
	for n := 0; n < r.size; n++ {
		if !f(r.buf[i]) {
			return
		}
		i++
		if i == len(r.buf) {
			i = 0
		}
	}
}

// Set overwrites the element at queue position i (0 = head). It panics if
// i is out of range.
func (r *Ring[T]) Set(i int, v T) {
	if i < 0 || i >= r.size {
		panic(fmt.Sprintf("queue: index %d out of range (len %d)", i, r.size))
	}
	r.buf[r.wrap(r.head+i)] = v
}
