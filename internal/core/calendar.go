package core

import "math/bits"

// calendar is the core's event calendar: the set of future cycles at
// which the machine's state can change on its own. Subsystems insert a
// cycle the moment the corresponding delivery time becomes known — a
// load or store address becoming available, a cache fill, a register
// value arriving, a branch resolving, fetch unfreezing after a redirect
// — and Step's fast-forward asks for the earliest scheduled cycle with a
// single O(1) peek instead of re-scanning every context, queue and
// register file (the pre-calendar design).
//
// The calendar stores bare cycles, not payloads: the stage logic already
// knows what to do once the machine is ticked at the right cycle, so all
// the scheduler needs is "nothing can change strictly before cycle T".
// That makes stale entries harmless by construction — an event whose
// cause was cancelled (say, a fetch-resume for a branch that was
// overtaken by an earlier redirect) at worst wakes the machine for one
// no-progress Tick, which accounts the cycle exactly like stepping
// would. Correctness needs only the converse invariant, enforced by the
// insertion sites and the equivalence suite: every cycle at which state
// *can* change is present (or the machine reported progress, which
// forbids skipping altogether).
//
// Structurally it is a two-level hierarchical timing wheel with an
// overflow heap:
//
//   - the wheel proper covers the next calWindow cycles as one bit per
//     cycle (64 words of 64 bits), with a one-word summary bitmap whose
//     bit w mirrors "word w has events". Schedule is two OR
//     instructions; the next-event query is at most four masked
//     trailing-zeros scans;
//   - cycles beyond the window (long L2 latencies, bus queueing) go to a
//     small binary min-heap and migrate into the wheel as it advances.
//
// Wheel bits live at index cycle&calMask, unambiguous because the
// occupied range (clearedTo, clearedTo+calWindow] never spans more than
// one window. Advancing clears passed bits in word-sized strokes, so a
// k-cycle fast-forward costs O(min(k, calWindow)/64) word writes.
type calendar struct {
	bits    [calWords]uint64
	summary uint64
	// clearedTo is the cycle up to which (inclusive) the wheel has been
	// swept clean: every wheel bit encodes a cycle in
	// (clearedTo, clearedTo+calWindow].
	clearedTo int64
	// far holds scheduled cycles beyond the wheel window, as a binary
	// min-heap (hand-rolled: the hot path must not allocate and the
	// stdlib heap interface boxes).
	far []int64
}

const (
	// calWindow is the wheel span in cycles. It comfortably covers the
	// paper's event horizon (L2 latency up to a few hundred cycles plus
	// bus queueing); anything longer overflows to the heap.
	calWindow = 1 << 12
	calMask   = calWindow - 1
	calWords  = calWindow / 64
)

// schedule inserts an event at cycle `at`, given the current cycle. Calls
// with at <= now+1 are ignored: the present is not a future event, and
// an event on the very next cycle needs no entry because Step always
// simulates at least one cycle before consulting the calendar — an event
// at time T only influences cycles ≥ T, all of which the unconditional
// Tick covers.
func (c *calendar) schedule(now, at int64) {
	if at <= now+1 {
		return
	}
	if at-c.clearedTo > calWindow {
		if at-now > calWindow {
			c.farPush(at)
			return
		}
		// The wheel lags `now` (advance is lazy: it runs only on
		// queries); catch it up so the event fits the window.
		c.advance(now)
	}
	idx := uint64(at) & calMask
	c.bits[idx>>6] |= 1 << (idx & 63)
	c.summary |= 1 << (idx >> 6)
}

// nextAfter returns the earliest scheduled cycle strictly after now, or
// Never when nothing is scheduled. Entries at or before now are
// discarded on the way.
func (c *calendar) nextAfter(now int64) int64 {
	c.advance(now)
	// Wheel entries now all lie in (now, now+calWindow]; in circular
	// order from index now+1 they appear by increasing cycle, so the
	// first set bit found below is the minimum. The four probes cover
	// the circular split: the start word's high bits, the summary above
	// and below the start word, and finally the start word's low bits
	// (which encode cycles near now+calWindow, after the wrap).
	if c.summary != 0 {
		start := uint64(now+1) & calMask
		w := start >> 6
		if m := c.bits[w] &^ (1<<(start&63) - 1); m != 0 {
			return c.cycleFor(now, w<<6|uint64(bits.TrailingZeros64(m)))
		}
		if s := c.summary &^ (1<<(w+1) - 1); s != 0 {
			hw := uint64(bits.TrailingZeros64(s))
			return c.cycleFor(now, hw<<6|uint64(bits.TrailingZeros64(c.bits[hw])))
		}
		if s := c.summary & (1<<w - 1); s != 0 {
			lw := uint64(bits.TrailingZeros64(s))
			return c.cycleFor(now, lw<<6|uint64(bits.TrailingZeros64(c.bits[lw])))
		}
		if m := c.bits[w] & (1<<(start&63) - 1); m != 0 {
			return c.cycleFor(now, w<<6|uint64(bits.TrailingZeros64(m)))
		}
	}
	if len(c.far) > 0 {
		return c.far[0]
	}
	return Never
}

// cycleFor converts a wheel bit index back to the absolute cycle it
// encodes, given that all wheel cycles lie in (now, now+calWindow].
func (c *calendar) cycleFor(now int64, idx uint64) int64 {
	base := now + 1
	return base + int64((idx-uint64(base))&calMask)
}

// advance sweeps the wheel clean through cycle `to` and migrates far
// events that now fit the window.
func (c *calendar) advance(to int64) {
	if to <= c.clearedTo {
		return
	}
	if to-c.clearedTo >= calWindow {
		// The whole wheel span has passed.
		if c.summary != 0 {
			c.bits = [calWords]uint64{}
			c.summary = 0
		}
	} else if c.summary != 0 {
		c.clearRange(c.clearedTo+1, to)
	}
	c.clearedTo = to
	for len(c.far) > 0 && c.far[0] <= to+calWindow {
		at := c.farPop()
		if at > to {
			idx := uint64(at) & calMask
			c.bits[idx>>6] |= 1 << (idx & 63)
			c.summary |= 1 << (idx >> 6)
		}
	}
}

// clearRange clears the wheel bits for cycles [from, to], where the span
// is known to be shorter than one window. The range may wrap the wheel;
// word indices are recomputed per segment, so the walk follows the ring.
func (c *calendar) clearRange(from, to int64) {
	for from <= to {
		b := uint64(from) & 63
		wordEnd := from + int64(63-b) // last cycle sharing from's word
		if wordEnd > to {
			wordEnd = to
		}
		mask := ^uint64(0) >> (63 - uint64(wordEnd)&63) &^ (1<<b - 1)
		w := (uint64(from) & calMask) >> 6
		c.bits[w] &^= mask
		if c.bits[w] == 0 {
			c.summary &^= 1 << w
		}
		from = wordEnd + 1
	}
}

// farPush inserts into the overflow min-heap.
func (c *calendar) farPush(at int64) {
	c.far = append(c.far, at)
	i := len(c.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if c.far[p] <= c.far[i] {
			break
		}
		c.far[p], c.far[i] = c.far[i], c.far[p]
		i = p
	}
}

// farPop removes and returns the overflow minimum.
func (c *calendar) farPop() int64 {
	min := c.far[0]
	last := len(c.far) - 1
	c.far[0] = c.far[last]
	c.far = c.far[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && c.far[l] < c.far[s] {
			s = l
		}
		if r < last && c.far[r] < c.far[s] {
			s = r
		}
		if s == i {
			break
		}
		c.far[i], c.far[s] = c.far[s], c.far[i]
		i = s
	}
	return min
}
