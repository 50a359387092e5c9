package mem

import (
	"testing"

	"repro/internal/cache"
)

// l2Spec returns a small shared-L2 spec compatible with testConfig's L1.
func l2Spec(size, assoc, mshrs int) LevelSpec {
	return LevelSpec{
		Name:             "L2",
		Cache:            cache.Config{SizeBytes: size, LineBytes: 32, Assoc: assoc},
		MSHRs:            mshrs,
		HitLatency:       16,
		BusBytesPerCycle: 16,
	}
}

// hierConfig is testConfig with a finite 256 KB shared L2 over DRAM.
func hierConfig() Config {
	c := testConfig()
	c.L2Latency = 0
	c.Hierarchy = []LevelSpec{l2Spec(256*1024, 8, 16)}
	c.DRAMLatency = 64
	return c
}

func TestHierarchyConfigValidate(t *testing.T) {
	if err := hierConfig().Validate(); err != nil {
		t.Fatalf("valid hierarchy config rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"stale flat latency", func(c *Config) { c.L2Latency = 16 }},
		{"zero DRAM latency", func(c *Config) { c.DRAMLatency = 0 }},
		{"line size mismatch", func(c *Config) { c.Hierarchy[0].Cache.LineBytes = 64 }},
		{"zero level MSHRs", func(c *Config) { c.Hierarchy[0].MSHRs = 0 }},
		{"zero level hit latency", func(c *Config) { c.Hierarchy[0].HitLatency = 0 }},
		{"zero level bus", func(c *Config) { c.Hierarchy[0].BusBytesPerCycle = 0 }},
		{"bad level geometry", func(c *Config) { c.Hierarchy[0].Cache.SizeBytes = 100 }},
	}
	for _, m := range mutations {
		c := hierConfig()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", m.name)
		}
	}
	// The flat model must reject a stray DRAM latency (it would fork the
	// content hash of identical machines).
	flat := testConfig()
	flat.DRAMLatency = 64
	if err := flat.Validate(); err == nil {
		t.Error("flat config with DRAM latency accepted")
	}
}

// TestHierarchyL2HitTiming: with the L2 hit latency equal to the flat
// model's L2 latency, an L1 miss that hits in the L2 costs exactly what
// the flat model charges: probe (1) + request (1) + array (16) +
// transfer (2).
func TestHierarchyL2HitTiming(t *testing.T) {
	s := newSys(t, hierConfig())
	flat := newSys(t, testConfig())

	s.BeginCycle(10)
	flat.BeginCycle(10)
	// Prime the L2: the first access goes to DRAM; after its L1 fill the
	// line is in both levels. Evict it from L1 only by filling the same
	// set, then re-access: an L2 hit.
	r := s.Load(0x4000)
	if !r.OK || !r.Miss {
		t.Fatalf("first access = %+v", r)
	}
	rf := flat.Load(0x4000)
	if rf.ReadyAt >= r.ReadyAt {
		t.Fatalf("DRAM-backed miss (%d) not slower than flat L2 (%d)", r.ReadyAt, rf.ReadyAt)
	}
	s.BeginCycle(r.ReadyAt)
	// Conflict line: same L1 set (64 KB direct-mapped), different L2 set
	// region — evicts 0x4000 from L1 but not from the 256 KB L2.
	r2 := s.Load(0x4000 + 64*1024)
	if !r2.OK || !r2.Miss {
		t.Fatalf("conflict access = %+v", r2)
	}
	s.BeginCycle(r2.ReadyAt)
	if s.Cache().Probe(0x4000) {
		t.Fatal("victim still in L1")
	}
	now := r2.ReadyAt
	r3 := s.Load(0x4000)
	if !r3.OK || !r3.Miss {
		t.Fatalf("re-access = %+v", r3)
	}
	want := now + 1 + 1 + 16 + 2 // probe + request + L2 array + bus transfer
	if r3.ReadyAt != want {
		t.Fatalf("L2 hit ready at %d, want %d", r3.ReadyAt, want)
	}
	ls := s.LevelStats(now, now)
	// Three L2 accesses: the two distinct-line DRAM misses plus the
	// final hit.
	if ls[0].Name != "L2" || ls[0].Accesses != 3 || ls[0].Misses != 2 {
		t.Fatalf("level stats = %+v, want 3 accesses / 2 primary misses", ls[0])
	}
}

// TestHierarchyDRAMTiming pins the full miss path: L1 probe + request,
// L2 array + request, DRAM latency, memory-bus transfer, then the L2→L1
// transfer.
func TestHierarchyDRAMTiming(t *testing.T) {
	s := newSys(t, hierConfig())
	s.BeginCycle(0)
	r := s.Load(0x8000)
	if !r.OK || !r.Miss {
		t.Fatalf("access = %+v", r)
	}
	// L1: hit latency (1) + command (1) → req at 2.
	// L2: array (16) + command (1) → DRAM request at 19.
	// DRAM: 64 → data at 83; memory bus 32B/16B = 2 → L2 fill at 85.
	// L1 bus transfer 2 → L1 fill at 87.
	if want := int64(87); r.ReadyAt != want {
		t.Fatalf("DRAM miss ready at %d, want %d", r.ReadyAt, want)
	}
}

// TestHierarchyWritebackChain: a dirty line evicted from L1
// write-allocates into the L2; a dirty line evicted from the L2 books
// the memory bus. Uses a direct-mapped 1-set-sized L2 so evictions are
// forced deterministically.
func TestHierarchyWritebackChain(t *testing.T) {
	c := testConfig()
	c.L2Latency = 0
	// L2 exactly one L1's size, direct-mapped: every L1 conflict is an
	// L2 conflict too.
	c.Hierarchy = []LevelSpec{l2Spec(64*1024, 1, 16)}
	c.DRAMLatency = 64
	s := newSys(t, c)

	const a, b = 0x1000, 0x1000 + 64*1024 // same set in both levels
	s.BeginCycle(0)
	r := s.StoreCommit(a)
	s.BeginCycle(r.ReadyAt)
	if !s.Cache().IsDirty(a) {
		t.Fatal("store did not dirty the L1 line")
	}
	// Evict a: its dirty line write-allocates into the L2's set.
	r2 := s.Load(b)
	s.BeginCycle(r2.ReadyAt)
	if got := s.Stats().Writebacks; got != 1 {
		t.Fatalf("L1 writebacks = %d, want 1", got)
	}
	ls := s.LevelStats(r2.ReadyAt, r2.ReadyAt)
	if ls[0].WriteAllocates != 1 {
		t.Fatalf("L2 write-allocates = %d, want 1 (%+v)", ls[0].WriteAllocates, ls[0])
	}
	if !s.LevelCache(0).IsDirty(a) {
		t.Fatal("written-back line not dirty in L2")
	}
	// b's fill evicted a from... no: b's L2 fill happened before a's
	// write-back arrived (the write-back allocates over b's set entry).
	// Evict the dirty a-line from the L2 by touching b again after it
	// left L1: the L2 write-allocate displaced b, so this misses through
	// to DRAM, and its L2 fill evicts the dirty a-line downstream.
	now := r2.ReadyAt
	r3 := s.Load(a) // brings a back into L1 via L2 hit; keeps L2 state
	s.BeginCycle(r3.ReadyAt)
	before := s.LevelStats(now, now)[0].Writebacks
	r4 := s.Load(b + 64*1024) // third line of the set: force the L2 eviction
	s.BeginCycle(r4.ReadyAt)
	after := s.LevelStats(r4.ReadyAt, r4.ReadyAt)[0].Writebacks
	if after != before+1 {
		t.Fatalf("L2 writebacks %d → %d, want +1 (dirty victim to DRAM)", before, after)
	}
}

// TestHierarchyLowerMSHRStall: when the L2's MSHR file is exhausted,
// further L1 misses are rejected with StallLowerMSHR, consume no L1
// MSHR, and are counted.
func TestHierarchyLowerMSHRStall(t *testing.T) {
	c := hierConfig()
	c.Hierarchy[0].MSHRs = 2
	s := newSys(t, c)
	s.BeginCycle(0)
	for i := 0; i < 2; i++ {
		if r := s.Load(uint64(0x10000 + i*32)); !r.OK {
			t.Fatalf("miss %d rejected: %+v", i, r)
		}
	}
	r := s.Load(0x20000)
	if r.OK || r.Stall != StallLowerMSHR {
		t.Fatalf("third distinct miss = %+v, want StallLowerMSHR", r)
	}
	if got := s.Stats().LowerRejects; got != 1 {
		t.Fatalf("LowerRejects = %d, want 1", got)
	}
	if got := s.l1.mshrsInUse; got != 2 {
		t.Fatalf("L1 MSHRs in use = %d, want 2 (reject must not leak)", got)
	}
	ls := s.LevelStats(0, 1)
	if ls[0].MSHRRejects != 1 {
		t.Fatalf("L2 MSHRRejects = %d, want 1", ls[0].MSHRRejects)
	}
}

// TestLevelSecondaryMerge drives a level directly: two fetches of one
// line while the first is pending merge into a single downstream miss.
func TestLevelSecondaryMerge(t *testing.T) {
	l := newLevel("L2", cache.Config{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 1},
		4, 16, 16, terminus{latency: 64})
	a1, ok := l.fetch(0x40, 10)
	if !ok {
		t.Fatal("first fetch rejected")
	}
	a2, ok := l.fetch(0x40, 12)
	if !ok {
		t.Fatal("merging fetch rejected")
	}
	if l.stats.Misses != 1 || l.stats.SecondaryMisses != 1 || l.stats.Accesses != 2 {
		t.Fatalf("stats = %+v, want 1 primary + 1 secondary", l.stats)
	}
	if a2 < a1 {
		t.Fatalf("merged fetch available at %d before the fill %d", a2, a1)
	}
	// After the fill installs, the same line is a hit.
	l.beginCycle(a1)
	if l.stats.Fills != 1 {
		t.Fatalf("fills = %d, want 1", l.stats.Fills)
	}
	a3, ok := l.fetch(0x40, a1)
	if !ok || a3 != a1+16 {
		t.Fatalf("post-fill fetch = (%d,%v), want hit at +16", a3, ok)
	}
	// A write-back to a pending line merges as a dirty mark.
	if _, ok := l.fetch(0x80, a1); !ok {
		t.Fatal("fetch rejected")
	}
	l.writeback(0x80, a1)
	if e := l.findMSHR(0x80); e == nil || !e.dirty {
		t.Fatal("write-back did not dirty the pending MSHR")
	}
}

// TestLevelIndexedMSHRFile drives a level whose MSHR file is large
// enough for the line index: a merge finds its entry through the index,
// a fill removes it, and a later miss reuses the freed entry.
func TestLevelIndexedMSHRFile(t *testing.T) {
	l := newLevel("L2", cache.Config{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 1},
		2*smallMSHRFile, 16, 16, terminus{latency: 64})
	if l.lineIdx == nil {
		t.Fatal("large MSHR file built without a line index")
	}
	a1, _ := l.fetch(0x40, 10)
	if _, ok := l.fetch(0x40, 12); !ok || l.stats.SecondaryMisses != 1 {
		t.Fatalf("indexed merge failed: %+v", l.stats)
	}
	if l.findMSHR(0x80) != nil {
		t.Fatal("unpending line found in the index")
	}
	l.beginCycle(a1)
	if len(l.lineIdx) != 0 || l.mshrsInUse != 0 {
		t.Fatalf("fill left %d indexed, %d in use", len(l.lineIdx), l.mshrsInUse)
	}
}

// TestLevelLowerRejectAndWriteAllocate: a primary miss the level below
// rejects leaves this level untouched, and write-allocated lines push a
// dirty victim down like a fill does.
func TestLevelLowerRejectAndWriteAllocate(t *testing.T) {
	geom := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}
	l3 := newLevel("L3", geom, 1, 30, 8, terminus{latency: 100})
	l2 := newLevel("L2", geom, 4, 16, 16, l3)
	if _, ok := l2.fetch(0x40, 0); !ok {
		t.Fatal("first miss rejected")
	}
	if _, ok := l2.fetch(0x80, 0); ok {
		t.Fatal("miss accepted with the level below out of MSHRs")
	}
	if l2.stats.Accesses != 1 || l2.mshrsInUse != 1 {
		t.Fatalf("rejected miss changed the level: %+v, %d in use", l2.stats, l2.mshrsInUse)
	}
	l2.writeback(0x400, 1)
	l2.writeback(0x800, 2) // same set: evicts the dirty 0x400
	if l2.stats.WriteAllocates != 2 || l2.stats.Writebacks != 1 || !l3.tags.IsDirty(0x400) {
		t.Fatalf("write-allocate victim not pushed down: L2 %+v", l2.stats)
	}
}

// TestHierarchyTwoLevels: levels compose — an L3 between the L2 and
// DRAM serves L2 misses and the names land in order in LevelStats.
func TestHierarchyTwoLevels(t *testing.T) {
	c := testConfig()
	c.L2Latency = 0
	c.Hierarchy = []LevelSpec{
		l2Spec(128*1024, 8, 16),
		{Cache: cache.Config{SizeBytes: 1024 * 1024, LineBytes: 32, Assoc: 8},
			MSHRs: 16, HitLatency: 30, BusBytesPerCycle: 8},
	}
	c.DRAMLatency = 100
	s := newSys(t, c)
	s.BeginCycle(0)
	r := s.Load(0x9000)
	if !r.OK || !r.Miss {
		t.Fatalf("access = %+v", r)
	}
	// L1 req at 2; L2 array+cmd → 19; L3 array+cmd → 50; DRAM 100 →
	// 150; L3 memory bus 32/8 = 4 → 154; L2 bus 2 → 156; L1 bus 2 → 158.
	if want := int64(158); r.ReadyAt != want {
		t.Fatalf("two-level miss ready at %d, want %d", r.ReadyAt, want)
	}
	ls := s.LevelStats(1, 1)
	if len(ls) != 2 || ls[0].Name != "L2" || ls[1].Name != "L3" {
		t.Fatalf("level names = %+v, want [L2 L3]", ls)
	}
	if ls[0].Misses != 1 || ls[1].Misses != 1 {
		t.Fatalf("miss counts = %+v, want 1 at each level", ls)
	}
}

// TestHierarchyResetStatsPreservesState: ResetStats clears counters and
// bus accounting at every level but keeps tags and MSHR state.
func TestHierarchyResetStatsPreservesState(t *testing.T) {
	s := newSys(t, hierConfig())
	s.BeginCycle(0)
	r := s.Load(0x3000)
	s.BeginCycle(r.ReadyAt)
	s.ResetStats()
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("stats after reset = %+v", st)
	}
	ls := s.LevelStats(r.ReadyAt, r.ReadyAt)
	if ls[0].Accesses != 0 || ls[0].Name != "L2" {
		t.Fatalf("level stats after reset = %+v", ls[0])
	}
	if !s.Cache().Probe(0x3000) || !s.LevelCache(0).Probe(0x3000) {
		t.Fatal("reset dropped cache state")
	}
	// The line is still a hit (state preserved), and new counters accrue.
	r2 := s.Load(0x3000)
	if !r2.OK || r2.Miss {
		t.Fatalf("post-reset access = %+v, want hit", r2)
	}
}
