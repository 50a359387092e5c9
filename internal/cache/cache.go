// Package cache models the tag/state array of the on-chip L1 data cache.
//
// The paper's L1 D-cache (Figure 2) is 64 KB, direct-mapped, 32-byte lines,
// write-back, lockup-free. This package implements the storage-state part
// of that design — lookup, fill, replacement, dirty tracking — with an
// associativity parameter (direct-mapped is associativity 1; higher ways
// with true-LRU replacement support the associativity ablation). All
// timing, port arbitration and miss handling live in package mem.
package cache

import "fmt"

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity, e.g. 64*1024.
	SizeBytes int
	// LineBytes is the line (block) size, e.g. 32.
	LineBytes int
	// Assoc is the set associativity; 1 means direct-mapped.
	Assoc int
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("cache: size %d must be positive", c.SizeBytes)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d must be a positive power of two", c.LineBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("cache: associativity %d must be positive", c.Assoc)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("cache: size %d not divisible by line*assoc %d", c.SizeBytes, c.LineBytes*c.Assoc)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// way is one line frame's tag and state. The tag is the full line number
// (address >> line shift), so it identifies the line on its own.
type way struct {
	tag   uint64
	valid bool
	dirty bool
}

// Cache is the tag/state array. It is not safe for concurrent use; the
// simulator is single-goroutine by design (cycle-stepped determinism).
type Cache struct {
	cfg Config
	// ways is the flat tag array, set-major: set s occupies
	// ways[s*assoc : (s+1)*assoc]. A direct-mapped probe is one index.
	ways []way
	// lru stamps each way's last use, parallel to ways (larger = more
	// recent). Nil when direct-mapped: one way per set has nothing to rank.
	lru      []uint64
	lruClock uint64
	assoc    int

	lineShift uint
	setMask   uint64
}

// New builds a cache from the geometry. It panics on an invalid Config
// (configuration is validated up front by package config; reaching here
// with a bad geometry is a programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.Sets()
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	c := &Cache{
		cfg:       cfg,
		ways:      make([]way, nSets*cfg.Assoc),
		assoc:     cfg.Assoc,
		lineShift: shift,
		setMask:   uint64(nSets - 1),
	}
	if cfg.Assoc > 1 {
		c.lru = make([]uint64, len(c.ways))
	}
	return c
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

func (c *Cache) tag(addr uint64) uint64 { return addr >> c.lineShift }

// base returns the index in ways of the first way of tag t's set.
func (c *Cache) base(t uint64) int { return int(t&c.setMask) * c.assoc }

// find returns the index in ways of the valid way holding tag t, or -1.
func (c *Cache) find(t uint64) int {
	b := c.base(t)
	for i := b; i < b+c.assoc; i++ {
		if c.ways[i].valid && c.ways[i].tag == t {
			return i
		}
	}
	return -1
}

// Lookup probes the cache for addr. On a hit it refreshes the line's LRU
// state and reports true. Direct-mapped caches — the paper's L1 and the
// simulator's hottest configuration — take a single-probe fast path with
// no LRU bookkeeping: with one way per set there is nothing to rank.
func (c *Cache) Lookup(addr uint64) bool {
	t := c.tag(addr)
	if c.assoc == 1 {
		w := &c.ways[t&c.setMask]
		return w.valid && w.tag == t
	}
	return c.lookupAssoc(t)
}

// lookupAssoc is the associative probe with LRU refresh.
func (c *Cache) lookupAssoc(t uint64) bool {
	i := c.find(t)
	if i < 0 {
		return false
	}
	c.lruClock++
	c.lru[i] = c.lruClock
	return true
}

// Probe reports whether addr hits without touching LRU state.
func (c *Cache) Probe(addr uint64) bool { return c.find(c.tag(addr)) >= 0 }

// Victim describes a line evicted by a Fill.
type Victim struct {
	// Addr is the line address of the evicted line.
	Addr uint64
	// Dirty reports whether the line must be written back.
	Dirty bool
	// Valid reports whether anything was evicted at all.
	Valid bool
}

// Fill installs the line containing addr, evicting the LRU way of its set
// if every way is valid. It returns the victim description. Filling a line
// that is already present refreshes it and returns no victim.
func (c *Cache) Fill(addr uint64) Victim {
	t := c.tag(addr)
	b := c.base(t)
	set := c.ways[b : b+c.assoc]
	v := 0
	if c.assoc == 1 {
		if set[0].valid && set[0].tag == t {
			return Victim{}
		}
	} else {
		c.lruClock++
		// Already present (e.g. racing fills merged upstream): refresh.
		if i := c.find(t); i >= 0 {
			c.lru[i] = c.lruClock
			return Victim{}
		}
		// Prefer an invalid way, else evict true-LRU.
		v = -1
		for i := range set {
			if !set[i].valid {
				v = i
				break
			}
		}
		if v < 0 {
			v = 0
			lru := c.lru[b : b+c.assoc]
			for i := 1; i < len(lru); i++ {
				if lru[i] < lru[v] {
					v = i
				}
			}
		}
		c.lru[b+v] = c.lruClock
	}
	old := set[v]
	set[v] = way{tag: t, valid: true}
	if !old.valid {
		return Victim{}
	}
	return Victim{Addr: old.tag << c.lineShift, Dirty: old.dirty, Valid: true}
}

// TouchDirect is the functional access of a sampling gap's warm path on
// a direct-mapped cache (Config.Assoc 1; it indexes ways as if every set
// had one): a miss installs the line — dropping its victim, so call it
// only where no level below needs the write-back — and a store dirties
// it. It is Lookup, then Fill on a miss, then SetDirty for a store, in
// one inlinable probe.
func (c *Cache) TouchDirect(addr uint64, store bool) {
	t := c.tag(addr)
	w := &c.ways[t&c.setMask]
	if !w.valid || w.tag != t {
		*w = way{tag: t, valid: true}
	}
	if store {
		w.dirty = true
	}
}

// SetDirty marks the line containing addr dirty. It reports whether the
// line was present.
func (c *Cache) SetDirty(addr uint64) bool {
	i := c.find(c.tag(addr))
	if i < 0 {
		return false
	}
	c.ways[i].dirty = true
	return true
}

// IsDirty reports whether the line containing addr is present and dirty.
func (c *Cache) IsDirty(addr uint64) bool {
	i := c.find(c.tag(addr))
	return i >= 0 && c.ways[i].dirty
}

// Invalidate removes the line containing addr if present, returning its
// dirty state (for write-back) and whether it was present.
func (c *Cache) Invalidate(addr uint64) (dirty, present bool) {
	i := c.find(c.tag(addr))
	if i < 0 {
		return false, false
	}
	dirty = c.ways[i].dirty
	c.ways[i] = way{}
	return dirty, true
}

// Flush invalidates every line, returning the number that were dirty.
func (c *Cache) Flush() int {
	dirty := 0
	for i := range c.ways {
		if c.ways[i].valid && c.ways[i].dirty {
			dirty++
		}
		c.ways[i] = way{}
	}
	return dirty
}
