package core

// Unit tests for the event calendar. The scheduler-level guarantees
// (bit-identical fast-forward) live in internal/sim's equivalence suite
// and fastforward_test.go; these tests pin the data structure itself:
// wheel indexing, same-cycle coalescing, window wraparound, the far-heap
// overflow path, lazy clearing across long advances, and stale (cancelled)
// events.

import (
	"math/rand"
	"testing"
)

// calRef is the oracle: a plain set of scheduled cycles.
type calRef map[int64]struct{}

func (r calRef) schedule(at int64) { r[at] = struct{}{} }
func (r calRef) nextAfter(now int64) int64 {
	next := int64(Never)
	for at := range r {
		if at > now && at < next {
			next = at
		}
	}
	return next
}

// TestCalendarBasic: schedule, peek, advance-by-query.
func TestCalendarBasic(t *testing.T) {
	var c calendar
	if got := c.nextAfter(0); got != Never {
		t.Fatalf("empty calendar: nextAfter = %d, want Never", got)
	}
	c.schedule(0, 5)
	c.schedule(0, 3)
	c.schedule(0, 9)
	if got := c.nextAfter(0); got != 3 {
		t.Fatalf("nextAfter(0) = %d, want 3", got)
	}
	if got := c.nextAfter(3); got != 5 {
		t.Fatalf("nextAfter(3) = %d, want 5 (3 consumed)", got)
	}
	if got := c.nextAfter(8); got != 9 {
		t.Fatalf("nextAfter(8) = %d, want 9", got)
	}
	if got := c.nextAfter(9); got != Never {
		t.Fatalf("nextAfter(9) = %d, want Never (drained)", got)
	}
}

// TestCalendarSameCycleEvents: many events on one cycle coalesce into a
// single wake-up, and their insertion order is immaterial.
func TestCalendarSameCycleEvents(t *testing.T) {
	var c calendar
	for i := 0; i < 10; i++ {
		c.schedule(100, 256) // e.g. several registers delivered together
	}
	c.schedule(100, 200)
	c.schedule(100, 256)
	if got := c.nextAfter(100); got != 200 {
		t.Fatalf("nextAfter = %d, want 200", got)
	}
	if got := c.nextAfter(200); got != 256 {
		t.Fatalf("nextAfter(200) = %d, want 256", got)
	}
	if got := c.nextAfter(256); got != Never {
		t.Fatalf("calendar not drained: %d", got)
	}
}

// TestCalendarPastEventsIgnored: scheduling at or before now is a no-op
// (the present is not a future event).
func TestCalendarPastEventsIgnored(t *testing.T) {
	var c calendar
	c.schedule(50, 50)
	c.schedule(50, 7)
	if got := c.nextAfter(50); got != Never {
		t.Fatalf("past/present events surfaced: nextAfter = %d", got)
	}
}

// TestCalendarWraparound walks events across many wheel windows,
// exercising index wrap and the lazy clearing of passed bits.
func TestCalendarWraparound(t *testing.T) {
	var c calendar
	now := int64(0)
	for i := 0; i < 200; i++ {
		at := now + calWindow - 7 // just inside the window, wraps constantly
		c.schedule(now, at)
		if got := c.nextAfter(now); got != at {
			t.Fatalf("iter %d: nextAfter(%d) = %d, want %d", i, now, got, at)
		}
		now = at
	}
	if got := c.nextAfter(now); got != Never {
		t.Fatalf("calendar not drained after wrap walk: %d", got)
	}
}

// TestCalendarFarOverflow: events beyond the wheel window (very long L2
// latencies, deep bus queueing) overflow to the heap and migrate back as
// the wheel advances.
func TestCalendarFarOverflow(t *testing.T) {
	var c calendar
	events := []int64{calWindow + 100, 3 * calWindow, 10 * calWindow, calWindow + 100, 5}
	for _, at := range events {
		c.schedule(0, at)
	}
	want := []int64{5, calWindow + 100, 3 * calWindow, 10 * calWindow}
	now := int64(0)
	for _, w := range want {
		got := c.nextAfter(now)
		if got != w {
			t.Fatalf("nextAfter(%d) = %d, want %d", now, got, w)
		}
		now = got
	}
	if got := c.nextAfter(now); got != Never {
		t.Fatalf("calendar not drained: %d", got)
	}
	if !c.empty() {
		t.Fatal("calendar should be empty after consuming all events")
	}
}

// TestCalendarStaleEvents: events skipped past by a long advance (their
// cause was cancelled, e.g. a mispredict redirect overtaking a pending
// fetch-resume) are swept and never resurface a window later at the
// aliased index.
func TestCalendarStaleEvents(t *testing.T) {
	var c calendar
	c.schedule(0, 10)
	c.schedule(0, 20)
	// Jump far past both without consuming them (cancelled events).
	if got := c.nextAfter(5 * calWindow); got != Never {
		t.Fatalf("stale events resurfaced: %d", got)
	}
	// The aliased indices must be clean for new events.
	at := int64(5*calWindow + 10)
	c.schedule(5*calWindow, at)
	if got := c.nextAfter(5 * calWindow); got != at {
		t.Fatalf("nextAfter = %d, want %d", got, at)
	}
}

// TestCalendarFarNearInterleave: near events (inside the wheel window)
// and far events (overflow heap) scheduled interleaved surface in strict
// cycle order, including far events whose wheel migration happens while
// newer near events keep arriving.
func TestCalendarFarNearInterleave(t *testing.T) {
	var c calendar
	ref := calRef{}
	now := int64(0)
	sched := func(at int64) {
		c.schedule(now, at)
		if at > now+1 {
			ref.schedule(at)
		}
	}
	// Alternate near and far at increasing distances, including several
	// sharing one far cycle (coalesce) and a far event exactly at the
	// window boundary.
	for i := int64(1); i <= 8; i++ {
		sched(now + 2 + 3*i)                  // near cluster
		sched(now + calWindow + 100*i)        // far heap
		sched(now + i*calWindow)              // whole windows out
		sched(now + calWindow + 100*i)        // duplicate far cycle
		sched(now + calWindow + int64(1))     // boundary: first heap cycle
		sched(now + calWindow - int64(2*i+1)) // just inside the wheel
	}
	for {
		want := ref.nextAfter(now)
		got := c.nextAfter(now)
		if got != want {
			t.Fatalf("nextAfter(%d) = %d, want %d", now, got, want)
		}
		if want == Never {
			break
		}
		// Consuming an event can itself schedule new work (a fill
		// triggering a retry): keep the heap churning while draining.
		if want%3 == 0 {
			c.schedule(want, want+calWindow+7)
			ref.schedule(want + calWindow + 7)
		}
		now = want
	}
	if !c.empty() {
		t.Fatal("calendar not empty after drain")
	}
}

// TestCalendarCancelReinsert: a far event whose cause was cancelled (the
// machine jumps past it without consuming) is swept on advance, and
// re-inserting the same absolute cycle later — now near, at the aliased
// wheel index — behaves like a fresh event, ordered against both newer
// and older survivors.
func TestCalendarCancelReinsert(t *testing.T) {
	var c calendar
	// One far event that will be cancelled, one that survives.
	c.schedule(0, 2*calWindow+50)
	c.schedule(0, 3*calWindow+10)
	// Jump over the first (cancellation by fast-forward past it).
	now := int64(2*calWindow + 100)
	if got := c.nextAfter(now); got != 3*calWindow+10 {
		t.Fatalf("survivor: nextAfter = %d, want %d", got, int64(3*calWindow+10))
	}
	// Re-insert the cancelled event's aliased wheel index at a new
	// absolute cycle (same cycle&calMask as the swept one) plus a later
	// far event; ordering must be by absolute cycle, no resurrection.
	reinsert := int64(3*calWindow + 50) // aliases 2*calWindow+50
	c.schedule(now, reinsert)
	c.schedule(now, 5*calWindow)
	want := []int64{3*calWindow + 10, reinsert, 5 * calWindow}
	for _, w := range want {
		got := c.nextAfter(now)
		if got != w {
			t.Fatalf("nextAfter(%d) = %d, want %d", now, got, w)
		}
		now = got
	}
	if got := c.nextAfter(now); got != Never {
		t.Fatalf("stale/cancelled event resurfaced: %d", got)
	}
	// Re-inserting an already-consumed cycle schedules it again (a new
	// event at an old index must not be mistaken for consumed state).
	c.schedule(now, now+10)
	if got := c.nextAfter(now); got != now+10 {
		t.Fatalf("re-inserted cycle: nextAfter = %d, want %d", got, now+10)
	}
}

// TestCalendarFarHeapOrdering stresses the overflow min-heap directly:
// hundreds of far events inserted in adversarial (descending,
// interleaved, duplicated) orders must drain in sorted order through
// the wheel as it advances, validated against the oracle.
func TestCalendarFarHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var c calendar
		ref := calRef{}
		now := int64(rng.Intn(10_000))
		n := 200 + rng.Intn(200)
		for i := 0; i < n; i++ {
			var at int64
			switch i % 3 {
			case 0: // descending ladder — worst case for a naive heap push
				at = now + int64(50-i%50+2)*calWindow
			case 1: // random far
				at = now + calWindow + 1 + int64(rng.Intn(40*calWindow))
			default: // near, to interleave wheel and heap at every drain step
				at = now + 2 + int64(rng.Intn(calWindow-2))
			}
			c.schedule(now, at)
			if at > now+1 {
				ref.schedule(at)
			}
		}
		// Drain with occasional long jumps (cancellation sweeps) mixed
		// into ordinary consumption.
		for {
			want := ref.nextAfter(now)
			got := c.nextAfter(now)
			if got != want {
				t.Fatalf("trial %d: nextAfter(%d) = %d, want %d", trial, now, got, want)
			}
			if want == Never {
				break
			}
			if rng.Intn(8) == 0 {
				now = want + int64(rng.Intn(3*calWindow)) // skip a stretch
			} else {
				now = want
			}
		}
		if len(c.far) != 0 {
			t.Fatalf("trial %d: %d far events left after drain", trial, len(c.far))
		}
	}
}

// TestCalendarAgainstReference drives random schedules and queries
// against a brute-force oracle, including adversarial clustering around
// window boundaries.
func TestCalendarAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var c calendar
		ref := calRef{}
		now := int64(rng.Intn(1000))
		for step := 0; step < 400; step++ {
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				var at int64
				switch rng.Intn(4) {
				case 0: // near future
					at = now + 1 + int64(rng.Intn(16))
				case 1: // mid-window
					at = now + int64(rng.Intn(calWindow))
				case 2: // window boundary neighbourhood
					at = now + calWindow + int64(rng.Intn(5)) - 2
				default: // far future
					at = now + int64(rng.Intn(4*calWindow))
				}
				c.schedule(now, at)
				if at > now+1 {
					// The calendar's contract drops next-cycle events
					// (Step's unconditional Tick covers them).
					ref.schedule(at)
				}
			}
			want := ref.nextAfter(now)
			if got := c.nextAfter(now); got != want {
				t.Fatalf("trial %d step %d: nextAfter(%d) = %d, want %d", trial, step, now, got, want)
			}
			// Advance: sometimes tick, sometimes jump (fast-forward),
			// sometimes jump past events (cancellation).
			switch rng.Intn(3) {
			case 0:
				now++
			case 1:
				if want != Never {
					now = want
				} else {
					now += int64(rng.Intn(100))
				}
			default:
				now += int64(rng.Intn(2 * calWindow))
			}
		}
	}
}

// empty reports whether no events are scheduled.
func (c *calendar) empty() bool { return c.summary == 0 && len(c.far) == 0 }
