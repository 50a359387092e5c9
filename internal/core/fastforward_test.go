package core

// White-box tests for the fast-forward scheduler's edge cases. The broad
// stepped-vs-fast equivalence over the paper's figure configurations
// lives in internal/sim (equiv_test.go); these tests pin down the corner
// behaviours with hand-built traces: draining inside a skippable stretch,
// a cycle cap landing inside a skipped interval, and an all-miss
// single-thread stream (the deepest-stall case).

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
)

// highLatency returns a single-thread Figure-2 machine with a 256-cycle
// L2, the regime where most cycles are skippable.
func highLatency() config.Machine {
	return config.Figure2(1).WithL2Latency(256)
}

// runPair runs the same machine and trace through Run and RunStepped and
// requires identical results; it returns the fast core for further
// assertions.
func runPair(t *testing.T, m config.Machine, insts []isa.Inst, maxCycles int64) (machine, machine) {
	t.Helper()
	fast, err := newMachine(m, []trace.Reader{trace.Slice(insts)})
	if err != nil {
		t.Fatal(err)
	}
	stepped, err := newMachine(m, []trace.Reader{trace.Slice(insts)})
	if err != nil {
		t.Fatal(err)
	}
	fc, fd := fast.Run(maxCycles)
	sc, sd := stepped.RunStepped(maxCycles)
	if fc != sc || fd != sd {
		t.Fatalf("run mismatch: fast (%d cycles, drained=%v) vs stepped (%d, %v)", fc, fd, sc, sd)
	}
	if *fast.Collector() != *stepped.Collector() {
		t.Fatalf("collector mismatch:\nfast:    %+v\nstepped: %+v", *fast.Collector(), *stepped.Collector())
	}
	if fast.Now() != stepped.Now() {
		t.Fatalf("clock mismatch: %d vs %d", fast.Now(), stepped.Now())
	}
	return fast, stepped
}

// missTrace builds n chains of [missing load -> dependent FP op], each
// load to a fresh 32-byte line far beyond the previous (every access a
// primary miss) with the consumer immediately behind it (no independent
// work to hide the latency).
func missTrace(n int) []isa.Inst {
	var insts []isa.Inst
	for i := 0; i < n; i++ {
		addr := uint64(0x100000 + i*4096)
		insts = append(insts,
			fpLoad(0x40, 8, 1, addr),
			fpOp(0x44, 0, 0, 8),
		)
	}
	return insts
}

// TestFastForwardDoneDuringSkip drains the machine off the tail of a
// skippable stall: after the last load is in flight nothing can happen
// until its refill, and the machine is done shortly after. The skip must
// neither overshoot the drain point nor change any statistic.
func TestFastForwardDoneDuringSkip(t *testing.T) {
	fast, _ := runPair(t, highLatency(), missTrace(1), 1_000_000)
	if fast.SkippedCycles() == 0 {
		t.Fatal("expected the load's miss latency to be skipped")
	}
	if !fast.Done() {
		t.Fatal("machine did not drain")
	}
}

// TestFastForwardMaxCyclesInsideSkip lands the cycle cap inside a
// skipped interval: the fast run must stop on exactly the capped cycle
// with exactly the accounting stepping produces.
func TestFastForwardMaxCyclesInsideSkip(t *testing.T) {
	for _, maxCycles := range []int64{10, 40, 100, 200} {
		fast, _ := runPair(t, highLatency(), missTrace(1), maxCycles)
		if fast.Done() {
			t.Fatalf("maxCycles=%d: machine unexpectedly drained", maxCycles)
		}
		if got := fast.Now(); got != maxCycles {
			t.Fatalf("maxCycles=%d: stopped at cycle %d", maxCycles, got)
		}
		if got := fast.Collector().Cycles; got != maxCycles {
			t.Fatalf("maxCycles=%d: collector counted %d cycles", maxCycles, got)
		}
	}
}

// TestFastForwardAllMissSingleThread is the all-miss stress in both
// shapes. Independent misses overlap in the lockup-free cache, so fills
// land every few bus cycles and events stay dense (few long skips);
// a serial gather chain — every load's address depends on the previous
// load's data — exposes the full L2 latency between events and must be
// mostly skipped. Both must match stepping bit for bit.
func TestFastForwardAllMissSingleThread(t *testing.T) {
	// Independent misses: equivalence under dense fill events.
	fast, _ := runPair(t, highLatency(), missTrace(40), 1_000_000)
	col := fast.Collector()
	if col.Graduated != 80 {
		t.Fatalf("graduated %d, want 80", col.Graduated)
	}
	// Sanity: the stalls were charged to memory waste, not idle/FU.
	if col.Slots[isa.EP].Wasted[1] == 0 { // stats.WasteMem
		t.Fatal("no memory-wait slots recorded on the EP")
	}

	// Serial gather chain: each load consumes the previous one's result.
	var chain []isa.Inst
	for i := 0; i < 40; i++ {
		chain = append(chain,
			intLoad(0x60, 13, 13, uint64(0x400000+i*4096)),
			intOp(0x64, 5, 13, 13),
		)
	}
	fast, _ = runPair(t, highLatency(), chain, 1_000_000)
	col = fast.Collector()
	if frac := float64(fast.SkippedCycles()) / float64(col.Cycles); frac < 0.5 {
		t.Fatalf("skipped only %.0f%% of a serial all-miss chain", 100*frac)
	}
}

// TestFastForwardBranchMispredictStall covers skips bounded by branch
// resolution and the post-redirect fetch resume: a mispredict-heavy
// trace must stay bit-identical under fast-forwarding.
func TestFastForwardBranchMispredictStall(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 300; i++ {
		insts = append(insts,
			intLoad(0x10, 13, 1, uint64(0x200000+i*4096)),
			intOp(0x14, 5, 13, 13),    // consume the missing load
			brInst(0x18, 5, i%2 == 0), // alternating, BHT-hostile
		)
	}
	runPair(t, highLatency(), insts, 2_000_000)
}

// TestFastForwardBeyondWheelWindow stresses the calendar's far-overflow
// path: an L2 latency larger than the timing wheel's span (calWindow
// cycles) sends every refill event through the overflow heap, and the
// serial gather chain forces skips longer than one whole wheel
// revolution. Everything must stay bit-identical to stepping.
func TestFastForwardBeyondWheelWindow(t *testing.T) {
	m := config.Figure2(1).WithL2Latency(calWindow + 1000)
	m.ScaleWithLatency = false // keep the machine itself at baseline size
	var chain []isa.Inst
	for i := 0; i < 12; i++ {
		chain = append(chain,
			intLoad(0x60, 13, 13, uint64(0x500000+i*4096)),
			intOp(0x64, 5, 13, 13),
		)
	}
	fast, _ := runPair(t, m, chain, 10_000_000)
	if frac := float64(fast.SkippedCycles()) / float64(fast.Collector().Cycles); frac < 0.9 {
		t.Fatalf("skipped only %.0f%% despite a %d-cycle L2", 100*frac, calWindow+1000)
	}
}

// TestFastForwardRedirectCancelsEvents pins the stale-event behaviour:
// a mispredicted branch freezes fetch while older instructions' events
// (register deliveries, access times) are already in the calendar; the
// redirect then re-schedules fetch. Cancelled/overtaken events may wake
// the machine spuriously but must never change a statistic. The trace
// alternates mispredicting branches with long-latency misses so
// resolution, redirect and refill events interleave in the calendar.
func TestFastForwardRedirectCancelsEvents(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 120; i++ {
		insts = append(insts,
			intLoad(0x30, 13, 1, uint64(0x600000+i*4096)),
			brInst(0x34, 13, i%3 == 0), // depends on the missing load
			intOp(0x38, 5, 13, 13),
		)
	}
	fast, _ := runPair(t, highLatency(), insts, 2_000_000)
	if fast.Collector().Mispredicts == 0 {
		t.Fatal("trace produced no mispredicts; the scenario is vacuous")
	}
	if fast.SkippedCycles() == 0 {
		t.Fatal("nothing was skipped; the scenario is vacuous")
	}
}

// TestFastForwardSpeculation runs the speculative-DAE extension through
// the equivalence harness: squash freezes land in the calendar, LoD
// fetch holds replay their per-cycle stall counter through skips, and
// the whole run must stay bit-identical to stepping. The trace mixes
// missing loads, FP consumers (so the EPQ is non-empty when LoD events
// fire) and mispredict-prone branches.
func TestFastForwardSpeculation(t *testing.T) {
	m := highLatency().WithSpeculation(config.Speculation{
		SpecLoadFrac: 0.5,
		MisspecProb:  0.3,
		LoDEvery:     25,
	})
	var insts []isa.Inst
	for i := 0; i < 250; i++ {
		base := uint64(0x700000 + i*4096)
		insts = append(insts,
			fpLoad(0x50, 8, 1, base),
			fpOp(0x54, 0, 0, 8),
			intLoad(0x58, 13, 1, base+64),
			brInst(0x5c, 13, i%3 == 0),
		)
	}
	fast, _ := runPair(t, m, insts, 2_000_000)
	col := fast.Collector()
	if col.SpeculativeLoads == 0 || col.Squashes == 0 || col.LoDStalls == 0 {
		t.Fatalf("speculation scenario vacuous: %+v", struct{ S, Q, L int64 }{
			col.SpeculativeLoads, col.Squashes, col.LoDStalls})
	}
	if fast.SkippedCycles() == 0 {
		t.Fatal("nothing was skipped; the scenario is vacuous")
	}
}

// TestFastForwardStoreConflictStall covers the load-behind-conflicting-
// store retry path, whose per-cycle conflict counter must replay exactly
// during skips (the store's data arrives from a missing load).
func TestFastForwardStoreConflictStall(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 50; i++ {
		base := uint64(0x300000 + i*4096)
		insts = append(insts,
			fpLoad(0x20, 8, 1, base),      // misses; produces store data
			fpStore(0x24, 8, 2, base+512), // waits on the load's data
			fpLoad(0x28, 9, 1, base+512),  // conflicts with the store
			fpOp(0x2c, 0, 0, 9),
		)
	}
	runPair(t, highLatency(), insts, 2_000_000)
}

// TestFastForwardRepeatsAddition pins that a skip of k cycles adds each
// waste share k times, as k one-cycle replays do, rather than adding
// k×share once. The buckets start at 1e15, where float64 values are
// 0.125 apart, and the AP unit splits 4 slots over 3 blocked threads, so
// the two sums round differently; the comparison is bit for bit.
func TestFastForwardRepeatsAddition(t *testing.T) {
	const k = 1000
	type reasons = [stats.NumWasteReasons]int32
	ap := reasons{stats.WasteMem: 2, stats.WasteFU: 1} // share 4/3
	for _, tc := range []struct {
		name string
		ep   reasons // over 2 EP slots
	}{
		{"shares", reasons{stats.WasteMem: 1, stats.WasteOther: 2}}, // share 2/3
		{"idle", reasons{}}, // no reason reported: both slots go to idle
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cores [2]*Core
			for i := range cores {
				m, err := newMachine(highLatency(), []trace.Reader{trace.Slice(nil)})
				if err != nil {
					t.Fatal(err)
				}
				c := m.Core
				c.cfg.APWidth, c.cfg.EPWidth = 4, 2
				for u, rs := range [isa.NumUnits]reasons{isa.AP: ap, isa.EP: tc.ep} {
					c.reasonBuf[u] = rs
					c.reasonTotal[u] = 0
					for r, n := range rs {
						c.reasonTotal[u] += n
						c.col.Slots[u].Wasted[r] = 1e15 + float64(r)
					}
				}
				cores[i] = c
			}
			skipped, replayed := cores[0], cores[1]
			start := skipped.col.Slots[isa.AP].Wasted[stats.WasteMem]
			skipped.fastForward(k)
			for i := 0; i < k; i++ {
				replayed.fastForward(1)
			}
			if skipped.col != replayed.col {
				t.Fatalf("a %d-cycle skip differs from %d one-cycle replays:\nskip:   %+v\nreplay: %+v",
					k, k, skipped.col.Slots, replayed.col.Slots)
			}
			if got := replayed.col.Slots[isa.AP].Wasted[stats.WasteMem]; got == start+float64(2*k)*(4.0/3) {
				t.Fatal("k×share rounds like k additions; the case shows nothing")
			}
		})
	}
}
