// Package bus models the off-chip L1↔L2 interface bus.
//
// Figure 2 of the paper specifies a 128-bit (16 bytes/cycle) bus between
// the on-chip L1 data cache and the off-chip L2. Section 3.3 shows this bus
// becoming the bottleneck of the non-decoupled machine at high thread
// counts (89% utilization with 12 threads, 98% with 16, at L2 latency 64).
//
// The bus is modelled as a single time-shared resource: every transaction
// (miss request, line refill, dirty write-back) reserves a contiguous span
// of bus cycles at the earliest time at or after its ready time. The model
// keeps a single "busy until" horizon rather than an event calendar — the
// simulator issues reservations in non-decreasing ready-time order, so the
// horizon is exact for in-order request streams and a tight approximation
// when refills interleave with new requests.
package bus

import "fmt"

// Bus is the shared L1↔L2 interface. The zero value is unusable; use New.
type Bus struct {
	bytesPerCycle int
	busyUntil     int64
	busyCycles    int64
	transactions  int64
}

// New returns a bus transferring bytesPerCycle bytes per cycle.
func New(bytesPerCycle int) *Bus {
	if bytesPerCycle <= 0 {
		panic(fmt.Sprintf("bus: bytes per cycle %d must be positive", bytesPerCycle))
	}
	return &Bus{bytesPerCycle: bytesPerCycle}
}

// TransferCycles returns how many bus cycles moving n bytes occupies
// (at least 1).
func (b *Bus) TransferCycles(n int) int64 {
	if n <= 0 {
		return 1
	}
	return int64((n + b.bytesPerCycle - 1) / b.bytesPerCycle)
}

// Reserve books the bus for the given number of cycles at the earliest
// time ≥ ready. It returns the cycle the transaction completes (i.e. the
// first cycle the data is fully transferred). Cycles must be positive.
func (b *Bus) Reserve(ready int64, cycles int64) (done int64) {
	if cycles <= 0 {
		panic(fmt.Sprintf("bus: reservation of %d cycles", cycles))
	}
	start := ready
	if b.busyUntil > start {
		start = b.busyUntil
	}
	b.busyUntil = start + cycles
	b.busyCycles += cycles
	b.transactions++
	return b.busyUntil
}

// BusyUntil returns the cycle at which all booked traffic completes.
func (b *Bus) BusyUntil() int64 { return b.busyUntil }

// BusyCycles returns the total cycles of traffic booked so far.
func (b *Bus) BusyCycles() int64 { return b.busyCycles }

// Transactions returns the number of reservations made.
func (b *Bus) Transactions() int64 { return b.transactions }

// Utilization returns the fraction of a measurement window the bus was
// busy. The window ends at absolute cycle `end` and spans `window`
// cycles; traffic booked since the last Reset but scheduled beyond `end`
// (a saturated bus running ahead of real time) is excluded, and the
// result is clamped to [0, 1].
func (b *Bus) Utilization(end, window int64) float64 {
	if window <= 0 {
		return 0
	}
	busy := b.busyCycles
	// Overhang: traffic booked past the end of the window has not yet
	// occupied real cycles.
	if over := b.busyUntil - end; over > 0 {
		busy -= over
	}
	if busy < 0 {
		busy = 0
	}
	u := float64(busy) / float64(window)
	if u > 1 {
		u = 1
	}
	return u
}

// Reset clears the traffic *accounting* (used between the warm-up and
// measurement windows). The busy horizon is physical state — in-flight
// transfers keep their reservations — so it is preserved.
func (b *Bus) Reset() {
	b.busyCycles = 0
	b.transactions = 0
}
