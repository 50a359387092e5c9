package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/cache"
)

// busyCycles reads the traffic booked on b since its last Reset: over a
// window ending after every booking, utilization times a power-of-two
// window is exact.
func busyCycles(b *bus.Bus) int64 {
	const window = 1 << 30
	return int64(b.Utilization(1<<62, window) * window)
}

func testConfig() Config {
	return Config{
		L1:               cache.Config{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 1},
		Ports:            4,
		MSHRs:            16,
		HitLatency:       1,
		L2Latency:        16,
		BusBytesPerCycle: 16,
	}
}

// sys is the paper's single-core memory system: core 0's System on a
// one-core Interconnect, with the interconnect's levels in reach.
type sys struct {
	*System
	ic *Interconnect
}

func newSys(t testing.TB, cfg Config) sys {
	t.Helper()
	ic, err := NewInterconnect(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys{ic.System(0), ic}
}

// BeginCycle advances the levels below first, then the L1 — the order
// CMP.Tick uses.
func (s sys) BeginCycle(now int64) int {
	return s.ic.BeginCycle(now) + s.System.BeginCycle(now)
}

// ResetStats clears the L1's and the levels' counters, as CMP.ResetStats
// does.
func (s sys) ResetStats() {
	s.System.ResetStats()
	s.ic.ResetStats()
}

func (s sys) LevelStats(end, window int64) []LevelStats { return s.ic.LevelStats(end, window) }

func (s sys) LevelCache(i int) *cache.Cache { return s.ic.levels[i].tags }

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.HitLatency = 0 },
		func(c *Config) { c.L2Latency = 0 },
		func(c *Config) { c.BusBytesPerCycle = 0 },
		func(c *Config) { c.L1.LineBytes = 33 },
	}
	for i, m := range mutations {
		c := testConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := NewInterconnect(c, 1); err == nil {
			t.Errorf("NewInterconnect accepted mutation %d", i)
		}
	}
}

func TestLoadHit(t *testing.T) {
	s := newSys(t, testConfig())
	s.BeginCycle(0)
	// Prime the line.
	r := s.Load(0x1000)
	if !r.OK || !r.Miss {
		t.Fatalf("first access = %+v, want accepted miss", r)
	}
	// Wait for the fill, then hit.
	s.BeginCycle(r.ReadyAt)
	r2 := s.Load(0x1008)
	if !r2.OK || r2.Miss {
		t.Fatalf("post-fill access = %+v, want hit", r2)
	}
	if r2.ReadyAt != r.ReadyAt+1 {
		t.Fatalf("hit latency: ready %d, want %d", r2.ReadyAt, r.ReadyAt+1)
	}
}

func TestMissLatencyComposition(t *testing.T) {
	cfg := testConfig()
	s := newSys(t, cfg)
	s.BeginCycle(10)
	r := s.Load(0x2000)
	if !r.OK || !r.Miss {
		t.Fatalf("access = %+v", r)
	}
	// tag probe (1) + request (1) + L2 (16) + line transfer (32/16 = 2)
	want := int64(10) + 1 + 1 + cfg.L2Latency + 2
	if r.ReadyAt != want {
		t.Fatalf("miss ready at %d, want %d", r.ReadyAt, want)
	}
}

func TestSecondaryMissMerges(t *testing.T) {
	s := newSys(t, testConfig())
	s.BeginCycle(0)
	r1 := s.Load(0x3000)
	r2 := s.Load(0x3010) // same 32-byte line
	if !r2.OK || !r2.Miss {
		t.Fatalf("secondary access = %+v", r2)
	}
	if r2.ReadyAt != r1.ReadyAt {
		t.Fatalf("merged miss ready %d != primary %d", r2.ReadyAt, r1.ReadyAt)
	}
	st := s.Stats()
	if st.SecondaryMisses != 1 {
		t.Fatalf("SecondaryMisses = %d, want 1", st.SecondaryMisses)
	}
	if s.l1.mshrsInUse != 1 {
		t.Fatalf("MSHRs in use = %d, want 1 (merged)", s.l1.mshrsInUse)
	}
	// Only one refill should have crossed the data bus (requests ride the
	// command channel).
	if got, want := busyCycles(s.Bus()), s.Bus().TransferCycles(32); got != want {
		t.Fatalf("bus busy for %d cycles, want one %d-cycle refill", got, want)
	}
}

func TestPortExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.Ports = 2
	s := newSys(t, cfg)
	s.BeginCycle(0)
	if r := s.Load(0x100); !r.OK {
		t.Fatal("first access rejected")
	}
	if r := s.Load(0x200); !r.OK {
		t.Fatal("second access rejected")
	}
	r := s.Load(0x300)
	if r.OK || r.Stall != StallPort {
		t.Fatalf("third access = %+v, want port stall", r)
	}
	// Next cycle the ports are free again.
	s.BeginCycle(1)
	if r := s.Load(0x300); !r.OK {
		t.Fatal("retry after port stall rejected")
	}
	if s.Stats().PortRejects != 1 {
		t.Fatalf("PortRejects = %d", s.Stats().PortRejects)
	}
}

func TestMSHRExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.MSHRs = 2
	cfg.Ports = 8
	s := newSys(t, cfg)
	s.BeginCycle(0)
	s.Load(0x0000)
	s.Load(0x1000)
	r := s.Load(0x2000)
	if r.OK || r.Stall != StallMSHR {
		t.Fatalf("third miss = %+v, want MSHR stall", r)
	}
	if s.Stats().MSHRRejects != 1 {
		t.Fatalf("MSHRRejects = %d", s.Stats().MSHRRejects)
	}
	// A hit must still be accepted while MSHRs are full — lockup-free.
	s.BeginCycle(100) // first fills complete
	if r := s.Load(0x0008); !r.OK || r.Miss {
		t.Fatalf("hit under full MSHRs = %+v", r)
	}
}

func TestMSHRFreedAfterFill(t *testing.T) {
	s := newSys(t, testConfig())
	s.BeginCycle(0)
	r := s.Load(0x4000)
	if s.l1.mshrsInUse != 1 {
		t.Fatal("MSHR not allocated")
	}
	s.BeginCycle(r.ReadyAt - 1)
	if s.l1.mshrsInUse != 1 {
		t.Fatal("MSHR freed early")
	}
	s.BeginCycle(r.ReadyAt)
	if s.l1.mshrsInUse != 0 {
		t.Fatal("MSHR not freed at fill time")
	}
	if s.Stats().Fills != 1 {
		t.Fatalf("Fills = %d", s.Stats().Fills)
	}
}

func TestStoreHitDirtiesLine(t *testing.T) {
	s := newSys(t, testConfig())
	s.BeginCycle(0)
	r := s.StoreCommit(0x5000)
	if !r.OK || !r.Miss {
		t.Fatalf("store miss = %+v", r)
	}
	s.BeginCycle(r.ReadyAt)
	if !s.Cache().IsDirty(0x5000) {
		t.Fatal("write-allocated line not dirty after fill")
	}
	r2 := s.StoreCommit(0x5008)
	if !r2.OK || r2.Miss {
		t.Fatalf("store hit = %+v", r2)
	}
	st := s.Stats()
	if st.StoreAccesses != 2 || st.StoreMisses != 1 {
		t.Fatalf("store stats = %+v", st)
	}
}

func TestStoreMergeMarksDirty(t *testing.T) {
	s := newSys(t, testConfig())
	s.BeginCycle(0)
	rl := s.Load(0x6000)
	s.StoreCommit(0x6010) // merges into the pending load miss
	s.BeginCycle(rl.ReadyAt)
	if !s.Cache().IsDirty(0x6000) {
		t.Fatal("merged store did not dirty the line at fill")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	s := newSys(t, testConfig())
	s.BeginCycle(0)
	r := s.StoreCommit(0x0)
	s.BeginCycle(r.ReadyAt)
	// Conflicting line in a 64 KB direct-mapped cache.
	r2 := s.Load(64 * 1024)
	s.BeginCycle(r2.ReadyAt)
	if s.Stats().Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", s.Stats().Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	s := newSys(t, testConfig())
	s.BeginCycle(0)
	r := s.Load(0x0)
	s.BeginCycle(r.ReadyAt)
	r2 := s.Load(64 * 1024)
	s.BeginCycle(r2.ReadyAt)
	if s.Stats().Writebacks != 0 {
		t.Fatalf("Writebacks = %d, want 0", s.Stats().Writebacks)
	}
}

func TestMissRatios(t *testing.T) {
	s := newSys(t, testConfig())
	s.BeginCycle(0)
	r := s.Load(0x100) // miss
	s.BeginCycle(r.ReadyAt)
	s.Load(0x108) // hit
	s.Load(0x110) // hit
	s.Load(0x118) // hit
	st := s.Stats()
	if got := st.LoadMissRatio(); got != 0.25 {
		t.Fatalf("LoadMissRatio = %v, want 0.25", got)
	}
	if got := st.StoreMissRatio(); got != 0 {
		t.Fatalf("StoreMissRatio = %v, want 0", got)
	}
}

func TestL2LatencyScaling(t *testing.T) {
	short := testConfig()
	long := testConfig()
	long.L2Latency = 256
	a, b := newSys(t, short), newSys(t, long)
	a.BeginCycle(0)
	b.BeginCycle(0)
	ra := a.Load(0x1000)
	rb := b.Load(0x1000)
	if rb.ReadyAt-ra.ReadyAt != 256-16 {
		t.Fatalf("latency delta = %d, want 240", rb.ReadyAt-ra.ReadyAt)
	}
}

func TestBusContentionSerializesMisses(t *testing.T) {
	cfg := testConfig()
	cfg.L2Latency = 1 // keep L2 out of the picture
	s := newSys(t, cfg)
	s.BeginCycle(0)
	var last int64
	// Each miss needs 1 request + 2 transfer cycles on the bus; with many
	// parallel misses the bus must serialize them.
	for i := 0; i < 4; i++ {
		r := s.Load(uint64(i) * 0x1000)
		if !r.OK {
			t.Fatalf("miss %d rejected", i)
		}
		if r.ReadyAt <= last {
			t.Fatalf("miss %d ready %d, not after previous %d", i, r.ReadyAt, last)
		}
		last = r.ReadyAt
	}
}

func TestResetStats(t *testing.T) {
	s := newSys(t, testConfig())
	s.BeginCycle(0)
	s.Load(0x1)
	s.ResetStats()
	if s.Stats() != (Stats{}) {
		t.Fatal("stats survived reset")
	}
	if busyCycles(s.Bus()) != 0 {
		t.Fatal("bus accounting survived reset")
	}
}

// Property: MSHR occupancy never exceeds the configured count, and every
// accepted miss is eventually filled (occupancy returns to zero).
func TestQuickMSHRBounds(t *testing.T) {
	f := func(addrsRaw []uint16, mshrRaw uint8) bool {
		cfg := testConfig()
		cfg.MSHRs = int(mshrRaw%8) + 1
		cfg.Ports = 64
		s := newSys(t, cfg)
		now := int64(0)
		for _, a := range addrsRaw {
			s.BeginCycle(now)
			s.Load(uint64(a) << 5) // distinct lines
			if s.l1.mshrsInUse > cfg.MSHRs {
				return false
			}
			now++
		}
		// Run forward; everything must drain.
		for i := 0; i < 10000 && s.l1.mshrsInUse > 0; i++ {
			now++
			s.BeginCycle(now)
		}
		return s.l1.mshrsInUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: accepted accesses always have ReadyAt strictly after the
// current cycle, and hits are exactly hit-latency away.
func TestQuickReadyAtMonotone(t *testing.T) {
	f := func(addrsRaw []uint16) bool {
		s := newSys(t, testConfig())
		now := int64(0)
		for _, a := range addrsRaw {
			s.BeginCycle(now)
			r := s.Load(uint64(a))
			if r.OK {
				if r.ReadyAt <= now {
					return false
				}
				if !r.Miss && r.ReadyAt != now+1 {
					return false
				}
			}
			now++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLoadHit(b *testing.B) {
	s := newSys(b, testConfig())
	s.BeginCycle(0)
	s.Load(0x1000)
	s.BeginCycle(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BeginCycle(int64(100 + i))
		s.Load(0x1000)
	}
}

func BenchmarkLoadMissStream(b *testing.B) {
	s := newSys(b, testConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BeginCycle(int64(i * 4))
		s.Load(uint64(i) << 5)
	}
}
