package mem

import (
	"reflect"
	"testing"

	"repro/internal/cache"
)

// Tests for the functional warm path (warm.go): architectural cache
// updates with no timing, the CMP invalidate twin, and the
// declared-disjoint broadcast skip.

func TestWarmFlatModel(t *testing.T) {
	s := newSys(t, testConfig())
	// A warm load installs the line with no counters and no time.
	s.Warm(0x1000, false)
	if !s.Cache().Lookup(0x1000) {
		t.Error("warm load did not install the line")
	}
	if s.Cache().IsDirty(0x1000) {
		t.Error("warm load dirtied the line")
	}
	// A warm store dirties it.
	s.Warm(0x1008, true)
	if !s.Cache().IsDirty(0x1000) {
		t.Error("warm store did not dirty the line")
	}
	if st := s.Stats(); st.LoadAccesses != 0 || st.StoreAccesses != 0 || st.Fills != 0 {
		t.Errorf("warming booked counters: %+v", st)
	}
	// Evicting the dirty line in the flat model drops the victim (DRAM
	// backs everything); the conflicting line simply takes its place.
	s.Warm(0x1000+64*1024, false)
	if s.Cache().Lookup(0x1000) {
		t.Error("conflicting warm did not evict")
	}
}

// TestWarmFlatProbe pins Warm over the flat model, where nothing finite
// lies below the L1: the L1 ends up exactly as a Lookup, Fill-on-miss
// and SetDirty-on-store sequence leaves it, dirty conflict victims
// dropped. A direct-mapped L1 takes the one-probe path; an associative
// one keeps its LRU order. A flat CMP declared disjoint takes the
// one-probe path too; without the declaration the broadcast still runs.
func TestWarmFlatProbe(t *testing.T) {
	assoc := testConfig()
	assoc.L1.Assoc = 2
	flatCMP := newCMPHarness(t, testConfig(), 2)
	flatCMP.ic.SetDisjointAddressSpaces(true)
	for _, tc := range []struct {
		name string
		sys  *System
	}{
		{"direct-mapped", newSys(t, testConfig()).System},
		{"2-way", newSys(t, assoc).System},
		{"disjoint CMP", flatCMP.sys[1]},
	} {
		ref := cache.New(tc.sys.cfg.L1)
		for i := uint64(0); i < 5000; i++ {
			addr := (i * 0x9e3779b97f4a7c15) % (1 << 20) // 16 tags per DM L1 set
			store := i%3 == 0
			tc.sys.Warm(addr, store)
			if !ref.Lookup(addr) {
				ref.Fill(addr)
			}
			if store {
				ref.SetDirty(addr)
			}
		}
		if !reflect.DeepEqual(tc.sys.Cache(), ref) {
			t.Errorf("%s: flat warm diverged from Lookup/Fill/SetDirty", tc.name)
		}
	}

	flatCMP.ic.SetDisjointAddressSpaces(false)
	flatCMP.sys[0].Warm(0x2000, false)
	flatCMP.sys[1].Warm(0x2000, true)
	if flatCMP.sys[0].Cache().Lookup(0x2000) {
		t.Error("flat CMP without the disjoint promise skipped its broadcast")
	}
}

func TestWarmHierarchyAllocatesDownChain(t *testing.T) {
	cfg := testConfig()
	cfg.L1 = cache.Config{SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 1}
	cfg.L2Latency = 0
	cfg.Hierarchy = []LevelSpec{l2Spec(64*1024, 1, 16)}
	cfg.DRAMLatency = 64
	s := newSys(t, cfg)

	// A warm miss installs in the L1 and allocates down the chain.
	s.Warm(0x1000, false)
	if !s.Cache().Lookup(0x1000) || !s.LevelCache(0).Lookup(0x1000) {
		t.Error("warm miss did not install in both levels")
	}
	// A line already below only fills the L1 (the chain walk stops at the
	// first level that holds it) — observable as the L2 copy keeping its
	// LRU position, which a direct-mapped L2 can't show; instead check a
	// dirty L1 victim writes back into the L2.
	s.Warm(0x1000, true)
	s.Warm(0x1000+8*1024, false) // evicts the dirty 0x1000 line from the 8 KB L1
	if s.Cache().Lookup(0x1000) {
		t.Error("conflicting warm did not evict the L1 line")
	}
	if !s.LevelCache(0).IsDirty(0x1000) {
		t.Error("dirty warm victim did not write back into the L2")
	}
}

func TestWarmInvalidateBroadcast(t *testing.T) {
	h := newCMPHarness(t, cmpConfig(), 2)

	// A clean remote copy dies on a warm store.
	h.sys[1].Warm(0x2000, false)
	if !h.sys[1].Cache().Lookup(0x2000) {
		t.Fatal("warm did not install on core 1")
	}
	h.sys[0].Warm(0x2000, true)
	if h.sys[1].Cache().Lookup(0x2000) {
		t.Error("warm store left the clean remote copy alive")
	}

	// A dirty remote copy migrates into the shared L2 before dying.
	h.sys[1].Warm(0x4000, true)
	h.ic.levels[0].tags.Invalidate(h.sys[1].Cache().LineAddr(0x4000))
	h.sys[0].Warm(0x4000, true)
	if h.sys[1].Cache().Lookup(0x4000) {
		t.Error("warm store left the dirty remote copy alive")
	}
	if !h.ic.levels[0].tags.IsDirty(0x4000) {
		t.Error("dirty remote copy did not migrate to the shared level")
	}
}

func TestWarmDisjointSkipsBroadcast(t *testing.T) {
	h := newCMPHarness(t, cmpConfig(), 2)
	h.ic.SetDisjointAddressSpaces(true)

	// With the workload declared disjoint the broadcast is skipped: a
	// remote copy (which a truly disjoint workload could never create)
	// survives a warm store.
	h.sys[1].Warm(0x2000, false)
	h.sys[0].Warm(0x2000, true)
	if !h.sys[1].Cache().Lookup(0x2000) {
		t.Error("disjoint warm store still broadcast an invalidation")
	}

	// Retracting the declaration restores the broadcast.
	h.ic.SetDisjointAddressSpaces(false)
	h.sys[0].Warm(0x2000, true)
	if h.sys[1].Cache().Lookup(0x2000) {
		t.Error("retracted disjoint declaration did not restore the broadcast")
	}
}

func TestWarmPrivateHierarchy(t *testing.T) {
	cfg := cmpConfig()
	cfg.PrivateHierarchy = true
	h := newCMPHarness(t, cfg, 2)

	// Each core's warm chain is its own private L2.
	h.sys[0].Warm(0x1000, false)
	if !h.ic.priv[0][0].tags.Lookup(0x1000) {
		t.Error("core 0 warm did not allocate in its private L2")
	}
	if h.ic.priv[1][0].tags.Lookup(0x1000) {
		t.Error("core 0 warm leaked into core 1's private L2")
	}

	// A warm store kills remote private-chain copies too.
	h.sys[1].Warm(0x1000, false)
	h.sys[0].Warm(0x1000, true)
	if h.sys[1].Cache().Lookup(0x1000) || h.ic.priv[1][0].tags.Lookup(0x1000) {
		t.Error("warm store left copies in core 1's private chain")
	}
}

func TestLevelStatsMergeCounters(t *testing.T) {
	a := LevelStats{Name: "L2", Accesses: 10, Misses: 3, SecondaryMisses: 2,
		MSHRRejects: 1, Fills: 3, WriteAllocates: 1, Writebacks: 2,
		Invalidations: 4, CoherenceWritebacks: 1}
	b := LevelStats{Accesses: 5, Misses: 1, SecondaryMisses: 1,
		MSHRRejects: 2, Fills: 1, WriteAllocates: 2, Writebacks: 1,
		Invalidations: 1, CoherenceWritebacks: 2}
	a.MergeCounters(b)
	want := LevelStats{Name: "L2", Accesses: 15, Misses: 4, SecondaryMisses: 3,
		MSHRRejects: 3, Fills: 4, WriteAllocates: 3, Writebacks: 3,
		Invalidations: 5, CoherenceWritebacks: 3}
	if a != want {
		t.Errorf("MergeCounters = %+v, want %+v", a, want)
	}
	if got := a.MissRatio(); got != 4.0/15.0 {
		t.Errorf("MissRatio = %v", got)
	}
	if got := (LevelStats{}).MissRatio(); got != 0 {
		t.Errorf("empty MissRatio = %v, want 0", got)
	}
}

func TestStatsMergeAndRatios(t *testing.T) {
	a := Stats{LoadAccesses: 10, LoadMisses: 2, StoreAccesses: 4, StoreMisses: 1,
		SecondaryMisses: 3, Writebacks: 1, Fills: 3, PortRejects: 5,
		MSHRRejects: 2, LowerRejects: 1}
	a.Merge(a)
	if a.LoadAccesses != 20 || a.StoreMisses != 2 || a.LowerRejects != 2 {
		t.Errorf("Merge = %+v", a)
	}
	if got := a.LoadMissRatio(); got != 0.2 {
		t.Errorf("LoadMissRatio = %v", got)
	}
	if got := a.StoreMissRatio(); got != 0.25 {
		t.Errorf("StoreMissRatio = %v", got)
	}
	var zero Stats
	if zero.LoadMissRatio() != 0 || zero.StoreMissRatio() != 0 {
		t.Error("zero-access ratios not 0")
	}
}

func TestStallReasonString(t *testing.T) {
	for want, r := range map[string]StallReason{
		"none": StallNone, "port": StallPort, "mshr": StallMSHR,
		"lower-mshr": StallLowerMSHR, "stall(9)": StallReason(9),
	} {
		if got := r.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", r, got, want)
		}
	}
}

func TestSystemAccessorsAndQuiescence(t *testing.T) {
	cfg := testConfig()
	cfg.L2Latency = 0
	cfg.Hierarchy = []LevelSpec{l2Spec(256*1024, 1, 16)}
	cfg.DRAMLatency = 64
	s := newSys(t, cfg)

	if got := s.cfg; got.DRAMLatency != 64 {
		t.Errorf("cfg.DRAMLatency = %d", got.DRAMLatency)
	}
	if s.ic.levels[0].bus == nil {
		t.Error("level 0 bus is nil")
	}
	if !s.Quiescent() {
		t.Error("idle system not quiescent")
	}

	// Fill cycles booked by the shared level reach a registered scheduler.
	var scheduled []int64
	s.ic.SetFillScheduler(func(at int64) { scheduled = append(scheduled, at) })

	s.BeginCycle(1)
	if r := s.Load(0x1000); !r.OK || !r.Miss {
		t.Fatalf("miss load rejected: %+v", r)
	}
	if s.Quiescent() {
		t.Error("system quiescent with a miss in flight")
	}
	if len(scheduled) == 0 {
		t.Error("shared-level fill was not scheduled")
	}
	for c := int64(2); s.l1.mshrsInUse > 0; c++ {
		s.BeginCycle(c)
	}
	if !s.Quiescent() {
		t.Error("system not quiescent after the fill")
	}

	ls := s.L1LevelStats(100, 100)
	if ls.Accesses != 1 || ls.Misses != 1 {
		t.Errorf("L1LevelStats = %+v", ls)
	}
}

func TestInterconnectFillScheduler(t *testing.T) {
	h := newCMPHarness(t, cmpConfig(), 2)
	var scheduled int
	h.ic.SetFillScheduler(func(int64) { scheduled++ })
	h.tick()
	h.load(t, 0, 0x1000)
	if scheduled == 0 {
		t.Error("shared-L2 fill did not reach the interconnect's scheduler")
	}
}
