package mem

import (
	"testing"

	"repro/internal/cache"
)

// cmpConfig is a two-level CMP configuration with a small direct-mapped
// L1 (8 KB, 256 sets) under a 64 KB direct-mapped shared L2 (2048
// sets): the size split lets tests pick addresses that conflict in one
// level but not the other.
func cmpConfig() Config {
	c := testConfig()
	c.L1 = cache.Config{SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 1}
	c.L2Latency = 0
	c.Hierarchy = []LevelSpec{l2Spec(64*1024, 1, 16)}
	c.DRAMLatency = 64
	return c
}

// cmpHarness drives an Interconnect plus its per-core Systems cycle by
// cycle, the way the CMP core driver does.
type cmpHarness struct {
	ic  *Interconnect
	sys []*System
	now int64
}

func newCMPHarness(t *testing.T, cfg Config, cores int) *cmpHarness {
	t.Helper()
	ic, err := NewInterconnect(cfg, cores)
	if err != nil {
		t.Fatal(err)
	}
	h := &cmpHarness{ic: ic}
	for c := 0; c < cores; c++ {
		h.sys = append(h.sys, ic.System(c))
	}
	return h
}

// tick advances one cycle: fabric first, then every core's L1 — the CMP
// driver's order.
func (h *cmpHarness) tick() {
	h.now++
	h.ic.BeginCycle(h.now)
	for _, s := range h.sys {
		s.BeginCycle(h.now)
	}
}

// runTo ticks until the given cycle.
func (h *cmpHarness) runTo(cycle int64) {
	for h.now < cycle {
		h.tick()
	}
}

// load issues a load on core c and fails the test if it is rejected.
func (h *cmpHarness) load(t *testing.T, c int, addr uint64) Result {
	t.Helper()
	r := h.sys[c].Load(addr)
	if !r.OK {
		t.Fatalf("cycle %d: core %d load %#x rejected: %v", h.now, c, addr, r.Stall)
	}
	return r
}

// store issues a store commit on core c and fails the test if rejected.
func (h *cmpHarness) store(t *testing.T, c int, addr uint64) Result {
	t.Helper()
	r := h.sys[c].StoreCommit(addr)
	if !r.OK {
		t.Fatalf("cycle %d: core %d store %#x rejected: %v", h.now, c, addr, r.Stall)
	}
	return r
}

func TestInterconnectConstruction(t *testing.T) {
	if _, err := NewInterconnect(cmpConfig(), 0); err == nil {
		t.Error("zero cores accepted")
	}
	bad := cmpConfig()
	bad.Ports = 0
	if _, err := NewInterconnect(bad, 2); err == nil {
		t.Error("invalid config accepted")
	}

	// Private hierarchies need a hierarchy to replicate.
	flatPriv := testConfig()
	flatPriv.PrivateHierarchy = true
	if _, err := NewInterconnect(flatPriv, 2); err == nil {
		t.Error("flat private hierarchy accepted")
	}

	ic, err := NewInterconnect(cmpConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Cores() != 2 {
		t.Fatalf("Cores() = %d", ic.Cores())
	}
	for c := 0; c < 2; c++ {
		s := ic.System(c)
		if s == nil {
			t.Fatalf("core %d has no System", c)
		}
		if got := s.l1Stats.Name; got != map[int]string{0: "c0.L1", 1: "c1.L1"}[c] {
			t.Errorf("core %d L1 name = %q", c, got)
		}
	}
	// Shared mode: one L2 entry, no per-core chains.
	if ls := ic.LevelStats(0, 1); len(ls) != 1 || ls[0].Name != "L2" {
		t.Fatalf("shared LevelStats = %+v", ls)
	}

	priv := cmpConfig()
	priv.PrivateHierarchy = true
	icp, err := NewInterconnect(priv, 2)
	if err != nil {
		t.Fatal(err)
	}
	ls := icp.LevelStats(0, 1)
	if len(ls) != 2 || ls[0].Name != "c0.L2" || ls[1].Name != "c1.L2" {
		t.Fatalf("private LevelStats = %+v", ls)
	}
}

// TestCoherenceInvalidatesCleanRemoteCopy: a store on one core kills the
// other core's cached copy, so its next access misses again.
func TestCoherenceInvalidatesCleanRemoteCopy(t *testing.T) {
	h := newCMPHarness(t, cmpConfig(), 2)
	const addr = 0x40

	h.tick()
	r := h.load(t, 1, addr)
	if !r.Miss {
		t.Fatal("cold load did not miss")
	}
	h.runTo(r.ReadyAt)
	h.tick()
	if r := h.load(t, 1, addr); r.Miss {
		t.Fatal("line not installed in core 1's L1")
	}

	// Core 0 writes the line: core 1's copy must die.
	h.tick()
	h.store(t, 0, addr)
	st1 := h.sys[1].l1Stats
	if st1.Invalidations != 1 {
		t.Fatalf("core 1 invalidations = %d, want 1", st1.Invalidations)
	}
	if st1.CoherenceWritebacks != 0 {
		t.Fatalf("clean copy produced %d coherence write-backs", st1.CoherenceWritebacks)
	}
	h.tick()
	if r := h.load(t, 1, addr); !r.Miss {
		t.Fatal("invalidated line still hit in core 1's L1")
	}
	// The writing core keeps its own copy.
	if h.sys[0].l1Stats.Invalidations != 0 {
		t.Fatal("the writer invalidated its own copy")
	}
}

// TestCoherenceWritesBackDirtyRemoteCopy: invalidating a dirty copy
// first pushes the modified line downstream (a coherence write-back), so
// the data migrates to the shared level instead of vanishing.
func TestCoherenceWritesBackDirtyRemoteCopy(t *testing.T) {
	h := newCMPHarness(t, cmpConfig(), 2)
	const addr = 0x40

	h.tick()
	r := h.store(t, 1, addr) // core 1 dirties the line
	h.runTo(r.ReadyAt)
	h.tick()
	h.store(t, 1, addr) // hit: definitely dirty in core 1's L1

	h.tick()
	h.store(t, 0, addr)
	st1 := h.sys[1].l1Stats
	if st1.Invalidations == 0 {
		t.Fatal("dirty remote copy not invalidated")
	}
	if st1.CoherenceWritebacks != 1 {
		t.Fatalf("coherence write-backs = %d, want 1", st1.CoherenceWritebacks)
	}
}

// TestInvalidateRacesInFlightFill (satellite edge case): a store hitting
// a line another core is still fetching cancels the fill in flight — the
// transfer completes, frees the MSHR, but installs nothing.
func TestInvalidateRacesInFlightFill(t *testing.T) {
	h := newCMPHarness(t, cmpConfig(), 2)
	const addr = 0x40

	h.tick()
	r := h.load(t, 1, addr)
	if !r.Miss {
		t.Fatal("cold load did not miss")
	}
	// Invalidate while the fill is in flight.
	h.tick()
	h.store(t, 0, addr)
	if h.sys[1].l1Stats.Invalidations != 1 {
		t.Fatalf("in-flight fill not invalidated (invals = %d)", h.sys[1].l1Stats.Invalidations)
	}

	fillsBefore := h.sys[1].l1Stats.Fills
	if h.sys[1].l1.mshrsInUse != 1 {
		t.Fatalf("core 1 MSHRs in use = %d, want 1", h.sys[1].l1.mshrsInUse)
	}
	h.runTo(r.ReadyAt)
	if h.sys[1].l1.mshrsInUse != 0 {
		t.Fatal("cancelled fill did not free its MSHR")
	}
	if got := h.sys[1].l1Stats.Fills; got != fillsBefore {
		t.Fatalf("cancelled fill installed a line (fills %d -> %d)", fillsBefore, got)
	}
	// The line is dead on arrival: the next access misses again.
	h.tick()
	if r := h.load(t, 1, addr); !r.Miss {
		t.Fatal("cancelled fill still installed the line")
	}
}

// TestMergeReArmsCancelledFill: an access merging into a cancelled MSHR
// is a fresh request for the line — the same in-flight transfer serves
// it and the install is re-armed.
func TestMergeReArmsCancelledFill(t *testing.T) {
	h := newCMPHarness(t, cmpConfig(), 2)
	const addr = 0x40

	h.tick()
	r := h.load(t, 1, addr)
	h.tick()
	h.store(t, 0, addr) // cancel in flight
	h.tick()
	r2 := h.load(t, 1, addr) // secondary miss: re-arms the install
	if !r2.Miss {
		t.Fatal("merge into pending MSHR not a delayed hit")
	}
	if h.sys[1].stats.SecondaryMisses != 1 {
		t.Fatalf("secondary misses = %d, want 1", h.sys[1].stats.SecondaryMisses)
	}
	h.runTo(r.ReadyAt)
	h.tick()
	if r := h.load(t, 1, addr); r.Miss {
		t.Fatal("re-armed fill did not install the line")
	}
}

// TestSharedMSHRExhaustionTwoCores (satellite edge case): with a single
// shared-L2 MSHR, a second and third primary miss — one from each core —
// both bounce with StallLowerMSHR, leaving no partial state anywhere;
// after the fill frees the MSHR, one retry wins and the other keeps
// stalling.
func TestSharedMSHRExhaustionTwoCores(t *testing.T) {
	cfg := cmpConfig()
	cfg.Hierarchy[0].MSHRs = 1
	h := newCMPHarness(t, cfg, 2)
	const (
		a = 0x40
		b = 0x10040
		c = 0x20040
	)

	h.tick()
	r := h.load(t, 0, a) // takes the one L2 MSHR
	if !r.Miss {
		t.Fatal("cold load did not miss")
	}

	h.tick()
	mshrs0, mshrs1 := h.sys[0].l1.mshrsInUse, h.sys[1].l1.mshrsInUse
	r0 := h.sys[0].Load(b)
	r1 := h.sys[1].Load(c)
	if r0.OK || r0.Stall != StallLowerMSHR {
		t.Fatalf("core 0 second miss = %+v, want StallLowerMSHR", r0)
	}
	if r1.OK || r1.Stall != StallLowerMSHR {
		t.Fatalf("core 1 concurrent miss = %+v, want StallLowerMSHR", r1)
	}
	// Rejection is stateless: neither L1 allocated an MSHR.
	if h.sys[0].l1.mshrsInUse != mshrs0 || h.sys[1].l1.mshrsInUse != mshrs1 {
		t.Fatal("rejected access left an L1 MSHR allocated")
	}
	l2 := h.ic.LevelStats(h.now, h.now)[0]
	if l2.MSHRRejects != 2 {
		t.Fatalf("L2 MSHR rejects = %d, want 2", l2.MSHRRejects)
	}

	// After the fill the MSHR frees; exactly one retry can win.
	h.runTo(r.ReadyAt)
	h.tick()
	r0 = h.sys[0].Load(b)
	if !r0.OK || !r0.Miss {
		t.Fatalf("core 0 retry after fill = %+v", r0)
	}
	r1 = h.sys[1].Load(c)
	if r1.OK || r1.Stall != StallLowerMSHR {
		t.Fatalf("core 1 retry with the MSHR re-taken = %+v, want StallLowerMSHR", r1)
	}
}

// TestDirtyEvictionDuringSecondaryMerge (satellite edge case): a shared-
// L2 fill whose MSHR collected a secondary miss from another core evicts
// a dirty victim — the write-back books the memory bus and travels to
// DRAM while both cores' delayed hits are served.
func TestDirtyEvictionDuringSecondaryMerge(t *testing.T) {
	h := newCMPHarness(t, cmpConfig(), 2)
	const (
		a = 0x0     // L1 set 0, L2 set 0
		b = 0x2000  // L1 set 0 (evicts a), L2 set 256
		c = 0x10000 // L1 set 0, L2 set 0 (evicts a from L2)
	)

	// Dirty a in the L2: store it on core 0, then evict it from core 0's
	// L1 (same L1 set) so the dirty line writes back into the L2.
	h.tick()
	r := h.store(t, 0, a)
	h.runTo(r.ReadyAt)
	h.tick()
	r = h.load(t, 0, b)
	h.runTo(r.ReadyAt)
	l2 := h.ic.LevelStats(h.now, h.now)[0]
	if l2.Writebacks != 0 {
		t.Fatalf("premature L2 write-back (%d)", l2.Writebacks)
	}

	// Core 0 misses on c (same L2 set as dirty a): L2 primary miss.
	h.tick()
	rc := h.load(t, 0, c)
	if !rc.Miss {
		t.Fatal("load of c did not miss")
	}
	// Core 1 requests c while the L2 fetch is pending: secondary miss at
	// the shared level.
	h.tick()
	rc1 := h.load(t, 1, c)
	if !rc1.Miss {
		t.Fatal("core 1 load of c did not miss")
	}
	l2 = h.ic.LevelStats(h.now, h.now)[0]
	if l2.SecondaryMisses != 1 {
		t.Fatalf("L2 secondary misses = %d, want 1", l2.SecondaryMisses)
	}

	// The fill installs c and evicts dirty a to DRAM.
	end := rc.ReadyAt
	if rc1.ReadyAt > end {
		end = rc1.ReadyAt
	}
	h.runTo(end)
	l2 = h.ic.LevelStats(h.now, h.now)[0]
	if l2.Writebacks != 1 {
		t.Fatalf("L2 write-backs after fill = %d, want 1 (dirty victim)", l2.Writebacks)
	}
	// Both cores now hold c.
	h.tick()
	if r := h.load(t, 0, c); r.Miss {
		t.Fatal("core 0 lost c")
	}
	if r := h.load(t, 1, c); r.Miss {
		t.Fatal("core 1 lost c")
	}
}

// TestPrivateHierarchyIsolatesCapacity: with per-core L2s, one core's
// working set cannot evict the other's, and coherence still reaches the
// private chains.
func TestPrivateHierarchyIsolatesCapacity(t *testing.T) {
	cfg := cmpConfig()
	cfg.PrivateHierarchy = true
	h := newCMPHarness(t, cfg, 2)
	const addr = 0x40

	// Warm the line into core 1's L1 and private L2.
	h.tick()
	r := h.load(t, 1, addr)
	h.runTo(r.ReadyAt)

	// A write on core 0 invalidates both of core 1's private levels.
	h.tick()
	h.store(t, 0, addr)
	if h.sys[1].l1Stats.Invalidations != 1 {
		t.Fatalf("core 1 L1 invalidations = %d, want 1", h.sys[1].l1Stats.Invalidations)
	}
	ls := h.ic.LevelStats(h.now, h.now)
	var c1l2 LevelStats
	for _, lv := range ls {
		if lv.Name == "c1.L2" {
			c1l2 = lv
		}
	}
	if c1l2.Invalidations != 1 {
		t.Fatalf("core 1 private L2 invalidations = %d, want 1", c1l2.Invalidations)
	}
	for _, lv := range ls {
		if lv.Name == "c0.L2" && lv.Invalidations != 0 {
			t.Fatal("the writer's own private L2 was invalidated")
		}
	}
}

// TestInterconnectResetStats: counters clear, names survive, and the
// cores' Systems keep their per-core L1 names through their own resets.
func TestInterconnectResetStats(t *testing.T) {
	h := newCMPHarness(t, cmpConfig(), 2)
	h.tick()
	r := h.load(t, 0, 0x40)
	h.runTo(r.ReadyAt)

	h.ic.ResetStats()
	for _, s := range h.sys {
		s.ResetStats()
	}
	if ls := h.ic.LevelStats(h.now, 1); ls[0].Name != "L2" || ls[0].Accesses != 0 {
		t.Fatalf("L2 stats after reset = %+v", ls[0])
	}
	if h.sys[0].l1Stats.Name != "c0.L1" {
		t.Fatalf("core 0 L1 name lost on reset: %q", h.sys[0].l1Stats.Name)
	}
}
