package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func dmConfig() Config {
	return Config{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 1}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		dmConfig(),
		{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 2},
		{SizeBytes: 8 * 1024, LineBytes: 64, Assoc: 4},
		{SizeBytes: 1024, LineBytes: 32, Assoc: 32}, // fully associative
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 32, Assoc: 1},
		{SizeBytes: 64 * 1024, LineBytes: 0, Assoc: 1},
		{SizeBytes: 64 * 1024, LineBytes: 33, Assoc: 1},
		{SizeBytes: 64 * 1024, LineBytes: 2, Assoc: 1}, // the packed tag needs lines of 4+
		{SizeBytes: 64 * 1024, LineBytes: 1, Assoc: 1},
		{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 0},
		{SizeBytes: 100, LineBytes: 32, Assoc: 1},
		{SizeBytes: 96 * 1024, LineBytes: 32, Assoc: 1}, // 3072 sets: not pow2
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
}

func TestSets(t *testing.T) {
	if got := dmConfig().Sets(); got != 2048 {
		t.Fatalf("Sets() = %d, want 2048", got)
	}
	c := Config{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 4}
	if got := c.Sets(); got != 512 {
		t.Fatalf("Sets() = %d, want 512", got)
	}
}

func TestLineAddr(t *testing.T) {
	c := New(dmConfig())
	if got := c.LineAddr(0x1234); got != 0x1220 {
		t.Fatalf("LineAddr(0x1234) = %#x, want 0x1220", got)
	}
	if got := c.LineAddr(0x1220); got != 0x1220 {
		t.Fatalf("LineAddr already aligned changed: %#x", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(dmConfig())
	addr := uint64(0x4000)
	if c.Lookup(addr) {
		t.Fatal("cold cache hit")
	}
	c.Fill(addr)
	if !c.Lookup(addr) {
		t.Fatal("miss after fill")
	}
	// Same line, different offset: must hit.
	if !c.Lookup(addr + 31) {
		t.Fatal("same-line offset missed")
	}
	// Next line: must miss.
	if c.Lookup(addr + 32) {
		t.Fatal("adjacent line hit without fill")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(dmConfig())
	a := uint64(0x0)
	b := a + 64*1024 // same set, different tag in a 64 KB direct-mapped cache
	c.Fill(a)
	if !c.Probe(a) {
		t.Fatal("fill did not install")
	}
	v := c.Fill(b)
	if !v.Valid || v.Addr != a {
		t.Fatalf("conflict eviction: victim = %+v, want addr %#x", v, a)
	}
	if c.Probe(a) {
		t.Fatal("evicted line still present")
	}
	if !c.Probe(b) {
		t.Fatal("new line absent")
	}
}

func TestSetAssociativeAvoidsConflict(t *testing.T) {
	c := New(Config{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 2})
	a := uint64(0x0)
	b := a + 32*1024 // same set in a 2-way 64 KB cache
	c.Fill(a)
	if v := c.Fill(b); v.Valid {
		t.Fatalf("2-way cache evicted with a free way: %+v", v)
	}
	if !c.Probe(a) || !c.Probe(b) {
		t.Fatal("both lines should be resident")
	}
	// Third line in the same set evicts the LRU (a, untouched since fill).
	d := a + 2*32*1024
	v := c.Fill(d)
	if !v.Valid || v.Addr != a {
		t.Fatalf("victim = %+v, want %#x", v, a)
	}
}

func TestLRUOrdering(t *testing.T) {
	c := New(Config{SizeBytes: 128, LineBytes: 32, Assoc: 4}) // 1 set, 4 ways
	addrs := []uint64{0, 32, 64, 96}
	for _, a := range addrs {
		c.Fill(a)
	}
	// Touch 0 so 32 becomes LRU.
	c.Lookup(0)
	v := c.Fill(128)
	if !v.Valid || v.Addr != 32 {
		t.Fatalf("victim = %+v, want LRU line 32", v)
	}
}

func TestDirtyWritebackTracking(t *testing.T) {
	c := New(dmConfig())
	a := uint64(0x1000)
	if c.SetDirty(a) {
		t.Fatal("SetDirty on absent line succeeded")
	}
	c.Fill(a)
	if c.IsDirty(a) {
		t.Fatal("fresh fill is dirty")
	}
	if !c.SetDirty(a) {
		t.Fatal("SetDirty on present line failed")
	}
	if !c.IsDirty(a) {
		t.Fatal("dirty bit not set")
	}
	// Conflict eviction must report the dirty victim.
	b := a + 64*1024
	v := c.Fill(b)
	if !v.Valid || !v.Dirty || v.Addr != c.LineAddr(a) {
		t.Fatalf("victim = %+v, want dirty %#x", v, a)
	}
}

func TestFillAlreadyPresent(t *testing.T) {
	c := New(dmConfig())
	a := uint64(0x2000)
	c.Fill(a)
	c.SetDirty(a)
	v := c.Fill(a)
	if v.Valid {
		t.Fatalf("refilling a present line evicted %+v", v)
	}
	if !c.IsDirty(a) {
		t.Fatal("refill cleared the dirty bit")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(dmConfig())
	a := uint64(0x3000)
	if _, present := c.Invalidate(a); present {
		t.Fatal("invalidate of absent line reported present")
	}
	c.Fill(a)
	c.SetDirty(a)
	dirty, present := c.Invalidate(a)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", dirty, present)
	}
	if c.Probe(a) {
		t.Fatal("line survived invalidation")
	}
}

func TestFlush(t *testing.T) {
	c := New(dmConfig())
	c.Fill(0x100)
	c.Fill(0x200)
	c.SetDirty(0x100)
	if n := c.Flush(); n != 1 {
		t.Fatalf("Flush returned %d dirty lines, want 1", n)
	}
	if validLines(c) != 0 {
		t.Fatal("lines survived flush")
	}
}

func TestValidLines(t *testing.T) {
	c := New(dmConfig())
	for i := 0; i < 10; i++ {
		c.Fill(uint64(i * 32))
	}
	if got := validLines(c); got != 10 {
		t.Fatalf("validLines = %d, want 10", got)
	}
	// Refill of present lines must not double count.
	c.Fill(0)
	if got := validLines(c); got != 10 {
		t.Fatalf("validLines after refill = %d, want 10", got)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{SizeBytes: 100, LineBytes: 32, Assoc: 1})
}

// Property: the number of valid lines never exceeds capacity, and a fill
// always makes its own line resident.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(addrsRaw []uint32, assocRaw uint8) bool {
		assoc := 1 << (assocRaw % 3) // 1, 2, 4
		cfg := Config{SizeBytes: 4 * 1024, LineBytes: 32, Assoc: assoc}
		c := New(cfg)
		capacity := cfg.SizeBytes / cfg.LineBytes
		for _, a := range addrsRaw {
			addr := uint64(a)
			c.Fill(addr)
			if !c.Probe(addr) {
				return false
			}
			if validLines(c) > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: lookup-after-fill of the same line always hits until an
// eviction of that set occurs; filling lines of distinct sets never
// interferes.
func TestQuickSetIsolation(t *testing.T) {
	f := func(setsRaw []uint16) bool {
		cfg := Config{SizeBytes: 4 * 1024, LineBytes: 32, Assoc: 1}
		c := New(cfg)
		seen := map[uint64]bool{}
		for _, s := range setsRaw {
			set := uint64(s) % uint64(cfg.Sets())
			addr := set * 32 // tag 0 for each set: no conflicts ever
			c.Fill(addr)
			seen[addr] = true
			for a := range seen {
				if !c.Probe(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refCache is a naive true-LRU reference model: per set, the resident
// lines in recency order (most recent last).
type refCache struct {
	sets  map[uint64][]refLine
	assoc int
	nSets uint64
}

type refLine struct {
	tag   uint64
	dirty bool
}

// find returns the line's set key and its position in the set (-1 if
// absent).
func (r *refCache) find(addr uint64) (uint64, int) {
	tag := addr / 32
	s := tag % r.nSets
	for i, l := range r.sets[s] {
		if l.tag == tag {
			return s, i
		}
	}
	return s, -1
}

// touch moves line i of set s to most recent.
func (r *refCache) touch(s uint64, i int) {
	set := r.sets[s]
	l := set[i]
	r.sets[s] = append(append(set[:i:i], set[i+1:]...), l)
}

// Property: every operation on the flat tag array agrees with the naive
// model — hits, victims (true LRU), dirty state and invalidation — for
// direct-mapped and associative geometries alike.
func TestQuickMatchesReferenceModel(t *testing.T) {
	f := func(ops []uint32, assocRaw uint8) bool {
		cfg := Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1 << (assocRaw % 4)}
		c := New(cfg)
		r := &refCache{sets: map[uint64][]refLine{}, assoc: cfg.Assoc, nSets: uint64(cfg.Sets())}
		for _, op := range ops {
			addr := uint64(op>>2) % 8192
			s, i := r.find(addr)
			switch op & 3 {
			case 0: // lookup
				if c.Lookup(addr) != (i >= 0) {
					return false
				}
				if i >= 0 {
					r.touch(s, i)
				}
			case 1: // fill
				v := c.Fill(addr)
				switch {
				case i >= 0:
					r.touch(s, i)
					if v.Valid {
						return false
					}
				case len(r.sets[s]) < r.assoc:
					r.sets[s] = append(r.sets[s], refLine{tag: addr / 32})
					if v.Valid {
						return false
					}
				default:
					old := r.sets[s][0]
					r.sets[s] = append(r.sets[s][1:], refLine{tag: addr / 32})
					if v != (Victim{Addr: old.tag * 32, Dirty: old.dirty, Valid: true}) {
						return false
					}
				}
			case 2: // store hit marking
				if c.SetDirty(addr) != (i >= 0) {
					return false
				}
				if i >= 0 {
					r.sets[s][i].dirty = true
				}
			case 3: // invalidate
				dirty, present := c.Invalidate(addr)
				if present != (i >= 0) || (present && dirty != r.sets[s][i].dirty) {
					return false
				}
				if i >= 0 {
					r.sets[s] = append(r.sets[s][:i:i], r.sets[s][i+1:]...)
				}
			}
		}
		n := 0
		for _, set := range r.sets {
			n += len(set)
		}
		return validLines(c) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: TouchDirect leaves a direct-mapped cache exactly as Lookup,
// Fill on a miss and SetDirty for a store do — the warm path's contract.
func TestQuickTouchDirectMatchesLookupFill(t *testing.T) {
	f := func(addrs []uint32, stores []bool) bool {
		cfg := Config{SizeBytes: 4 * 1024, LineBytes: 32, Assoc: 1}
		touched, reference := New(cfg), New(cfg)
		for i, a := range addrs {
			addr := uint64(a) % (64 * 1024) // 16 tags per set: plenty of conflicts
			store := i < len(stores) && stores[i]
			touched.TouchDirect(addr, store)
			if !reference.Lookup(addr) {
				reference.Fill(addr)
			}
			if store {
				reference.SetDirty(addr)
			}
		}
		return reflect.DeepEqual(touched, reference)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(dmConfig())
	c.Fill(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(0x1000)
	}
}

func BenchmarkFillConflict(b *testing.B) {
	c := New(dmConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(i) * 64 * 1024)
	}
}

// validLines returns the number of valid lines in c.
func validLines(c *Cache) int {
	n := 0
	for i := range c.ways {
		if c.ways[i].valid() {
			n++
		}
	}
	return n
}

// Flush invalidates every line, returning the number that were dirty.
func (c *Cache) Flush() int {
	dirty := 0
	for i := range c.ways {
		if c.ways[i].valid() && c.ways[i].dirty() {
			dirty++
		}
		c.ways[i] = 0
	}
	return dirty
}
