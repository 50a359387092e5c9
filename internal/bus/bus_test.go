package bus

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestTransferCycles(t *testing.T) {
	b := New(16)
	cases := []struct {
		bytes int
		want  int64
	}{
		{0, 1}, {1, 1}, {16, 1}, {17, 2}, {32, 2}, {33, 3}, {48, 3},
	}
	for _, c := range cases {
		if got := b.TransferCycles(c.bytes); got != c.want {
			t.Errorf("TransferCycles(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestReserveIdleBus(t *testing.T) {
	b := New(16)
	done := b.Reserve(10, 2)
	if done != 12 {
		t.Fatalf("done = %d, want 12", done)
	}
	if b.busyUntil != 12 || b.busyCycles != 2 {
		t.Fatalf("state = (%d,%d)", b.busyUntil, b.busyCycles)
	}
}

func TestReserveQueuesBehindTraffic(t *testing.T) {
	b := New(16)
	b.Reserve(0, 10) // busy 0..10
	done := b.Reserve(3, 2)
	if done != 12 {
		t.Fatalf("second reservation done = %d, want 12", done)
	}
	// A reservation after the horizon starts at its ready time.
	done = b.Reserve(20, 2)
	if done != 22 {
		t.Fatalf("post-gap reservation done = %d, want 22", done)
	}
}

func TestReservePanicsOnNonPositive(t *testing.T) {
	b := New(16)
	defer func() {
		if recover() == nil {
			t.Fatal("Reserve(_,0) did not panic")
		}
	}()
	b.Reserve(0, 0)
}

func TestUtilization(t *testing.T) {
	b := New(16)
	b.Reserve(0, 30)
	if got := b.Utilization(100, 100); got != 0.30 {
		t.Fatalf("Utilization = %v, want 0.30", got)
	}
	if got := b.Utilization(100, 0); got != 0 {
		t.Fatalf("zero window = %v", got)
	}
}

func TestUtilizationWindowed(t *testing.T) {
	// Traffic booked before the window belongs to the previous window's
	// accounting; after a Reset only new traffic counts, measured against
	// the window length.
	b := New(16)
	b.Reserve(0, 50) // warm-up traffic
	b.Reset()
	b.Reserve(100, 20) // measurement traffic, completes at 120
	if got := b.Utilization(200, 100); got != 0.20 {
		t.Fatalf("windowed utilization = %v, want 0.20", got)
	}
}

func TestResetPreservesHorizon(t *testing.T) {
	b := New(16)
	done := b.Reserve(0, 10)
	b.Reset()
	// A new reservation must still queue behind the in-flight transfer.
	if got := b.Reserve(0, 2); got != done+2 {
		t.Fatalf("post-reset reservation done = %d, want %d", got, done+2)
	}
}

func TestUtilizationSaturationClamped(t *testing.T) {
	b := New(16)
	// Book far more traffic than elapsed time: a saturated bus.
	for i := 0; i < 100; i++ {
		b.Reserve(0, 10)
	}
	u := b.Utilization(50, 50)
	if u > 1 || u < 0.99 {
		t.Fatalf("saturated utilization = %v, want ~1.0 clamped", u)
	}
}

func TestReset(t *testing.T) {
	b := New(16)
	b.Reserve(0, 5)
	b.Reset()
	if b.busyCycles != 0 {
		t.Fatal("Reset left accounting behind")
	}
	if b.busyUntil != 5 {
		t.Fatal("Reset discarded the physical busy horizon")
	}
}

// Property: reservations never overlap and never start before their ready
// time; total busy cycles equals the sum of requested cycles.
func TestQuickNoOverlap(t *testing.T) {
	f := func(reqs []struct {
		Ready  uint16
		Cycles uint8
	}) bool {
		b := New(16)
		var lastDone int64
		var total int64
		var prevReady int64
		for _, r := range reqs {
			// Issue in non-decreasing ready order, as the simulator does.
			ready := prevReady + int64(r.Ready%64)
			prevReady = ready
			cycles := int64(r.Cycles%8) + 1
			done := b.Reserve(ready, cycles)
			start := done - cycles
			if start < ready { // started before ready
				return false
			}
			if start < lastDone { // overlapped previous transaction
				return false
			}
			lastDone = done
			total += cycles
		}
		return b.busyCycles == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: utilization is always within [0,1].
func TestQuickUtilizationBounds(t *testing.T) {
	f := func(cycles []uint8, elapsed uint16) bool {
		b := New(16)
		for _, c := range cycles {
			b.Reserve(0, int64(c%16)+1)
		}
		end := int64(elapsed) + 1
		u := b.Utilization(end, end)
		return u >= 0 && u <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReserve(b *testing.B) {
	bs := New(16)
	for i := 0; i < b.N; i++ {
		bs.Reserve(int64(i), 2)
	}
}
