package mem

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/queue"
)

// This file holds the composable pieces of the memory hierarchy: the
// level (tags + lockup-free MSHR file + fill FIFO + the bus connecting
// it to whatever is below + its own counters), and the backend interface
// that lets levels stack — L1 over a finite shared L2 over DRAM, or L1
// directly over the paper's infinite flat-latency L2 (the default).

// LevelSpec configures one shared cache level of a finite hierarchy
// (mem.Config.Hierarchy). The zero value is invalid; every field must be
// set.
type LevelSpec struct {
	// Name labels the level in statistics ("L2", "L3"); empty defaults
	// to "L<position>" counting from 2.
	Name string `json:",omitempty"`
	// Cache is the level's tag-array geometry. Its line size must equal
	// the L1 line size (refills move whole lines level to level).
	Cache cache.Config
	// MSHRs is the level's miss capacity: outstanding fetches to the
	// next level down.
	MSHRs int
	// HitLatency is the tag+array access latency in cycles.
	HitLatency int64
	// BusBytesPerCycle is the width of the level's downstream bus — the
	// memory bus, for the last level — carrying its refills and dirty
	// write-backs.
	BusBytesPerCycle int
}

// Validate checks one level spec against the L1 geometry.
func (l LevelSpec) Validate(l1 cache.Config) error {
	if err := l.Cache.Validate(); err != nil {
		return err
	}
	switch {
	case l.Cache.LineBytes != l1.LineBytes:
		return fmt.Errorf("mem: level %q line size %d must match L1's %d",
			l.Name, l.Cache.LineBytes, l1.LineBytes)
	case l.MSHRs <= 0:
		return fmt.Errorf("mem: level %q MSHRs %d must be positive", l.Name, l.MSHRs)
	case l.HitLatency <= 0:
		return fmt.Errorf("mem: level %q hit latency %d must be positive", l.Name, l.HitLatency)
	case l.BusBytesPerCycle <= 0:
		return fmt.Errorf("mem: level %q bus width %d must be positive", l.Name, l.BusBytesPerCycle)
	}
	return nil
}

// LevelStats aggregates one shared level's counters. Accesses counts
// requests accepted from the level above; Misses counts primary misses
// forwarded downstream (secondary misses merge into a pending MSHR, the
// same delayed-hit accounting the L1 uses), so MissRatio tracks lines
// fetched, not stalled requests.
type LevelStats struct {
	// Name identifies the level ("L2", ...).
	Name string
	// Accesses counts fetch requests accepted from the level above.
	Accesses int64
	// Misses counts primary misses (lines requested from below).
	Misses int64
	// SecondaryMisses counts requests merged into a pending MSHR.
	SecondaryMisses int64
	// MSHRRejects counts requests rejected for lack of an MSHR.
	MSHRRejects int64
	// Fills counts lines installed by refills from below.
	Fills int64
	// WriteAllocates counts upper-level write-backs that missed and were
	// installed directly (full-line writes fetch nothing).
	WriteAllocates int64
	// Writebacks counts dirty victims pushed downstream.
	Writebacks int64
	// BusUtilization is the fraction of the measurement window the
	// level's downstream bus was busy (the memory bus, for the last
	// level). Filled in by Interconnect.LevelStats and
	// System.L1LevelStats.
	BusUtilization float64
	// Invalidations counts lines invalidated by a remote core's write
	// (CMP write-invalidate coherence; always 0 — and omitted from
	// encodings — on single-core machines, pinning their report hashes).
	Invalidations int64 `json:",omitempty"`
	// CoherenceWritebacks counts dirty copies pushed downstream by an
	// invalidation (the modified data migrates to the shared level
	// before the line dies).
	CoherenceWritebacks int64 `json:",omitempty"`
}

// MissRatio returns primary misses / accesses (0 if no accesses).
func (l LevelStats) MissRatio() float64 {
	if l.Accesses == 0 {
		return 0
	}
	return float64(l.Misses) / float64(l.Accesses)
}

// backend models everything below a cache level: it accepts line fetches
// and write-backs and reports when fetched data is available at its
// output for the requester to transfer up over its own bus.
type backend interface {
	// fetch requests a line; ready is the cycle the request arrives at
	// the backend. It returns the cycle the line is available at the
	// backend's output, or ok=false when a structural hazard (an MSHR
	// file below being full) rejects the request — in which case no
	// state anywhere below was modified and the caller must retry.
	fetch(line uint64, ready int64) (availAt int64, ok bool)
	// writeback hands down a dirty line evicted by the level above at
	// cycle now. Write-backs are never rejected (they are full-line
	// writes and allocate without fetching).
	writeback(line uint64, now int64)
}

// terminus is a fixed-latency backend that always accepts: the paper's
// infinite flat-latency L2 in the default model, and the DRAM behind the
// last level of a finite hierarchy. Bandwidth is modelled by the
// requesting level's downstream bus, which books the line transfer.
type terminus struct{ latency int64 }

func (t terminus) fetch(line uint64, ready int64) (int64, bool) { return ready + t.latency, true }
func (t terminus) writeback(uint64, int64)                      {}

// mshr is one miss status holding register: a pending line fetch.
type mshr struct {
	line  uint64
	fill  int64 // cycle the line is installed in this level
	dirty bool  // a store (or write-back) merged into the miss: mark dirty at fill
	valid bool
	// cancelled marks an in-flight fill invalidated by a remote write:
	// the data still arrives (and serves the accesses that merged before
	// the invalidation), but the line is not installed. A later access
	// merging into the entry re-arms the install — it is a fresh request
	// for the line, satisfied by the same in-flight transfer.
	cancelled bool
}

// smallMSHRFile is the file size up to which findMSHR's FIFO walk beats
// a hash lookup (the paper's machine has 16 entries; latency scaling and
// high thread counts grow the file into the hundreds).
const smallMSHRFile = 32

// level is one cache level: the tag array, the MSHR file making it
// lockup-free, the fill FIFO ordering refills, and the downstream bus
// carrying its miss traffic. The L1 is a level driven directly by
// System's port-arbitrated access path; shared levels are driven through
// the backend interface by the level above.
type level struct {
	tags       *cache.Cache
	bus        *bus.Bus // downstream bus (refills in, write-backs out)
	next       backend  // what is below this level
	hitLatency int64
	lineBytes  int

	mshrs      []mshr
	mshrsInUse int
	// fillq holds the occupied MSHR indices in allocation order. Bus
	// reservations are monotonic (bus.Reserve never books earlier than a
	// previous reservation), so allocation order is also fill-time
	// order: beginCycle pops due refills from the head in O(1) instead
	// of scanning the file, and the head's fill time is the exact
	// next-fill bound.
	fillq *queue.Ring[int]
	// lineIdx maps a pending line to its MSHR index for large files
	// (nil for paper-sized files, where walking the occupied FIFO beats
	// hashing).
	lineIdx map[uint64]int
	// freeIdx stacks the free MSHR indices.
	freeIdx []int

	// stats holds the level's counters under its report name. An L1
	// counts only its fills, write-backs and invalidations here; its
	// System counts the accesses.
	stats LevelStats
	// sched, when set, is called with every future fill cycle the level
	// books, so the core's event calendar wakes the machine exactly when
	// a line installs (and its dirty victim, if any, books bus time).
	// The L1 needs no hook — the core schedules L1 fill times itself
	// from the access results — so only shared levels set it.
	sched func(at int64)
}

// newLevel builds one cache level, named name in reports, over the given
// backend.
func newLevel(name string, tags cache.Config, mshrs int, hitLatency int64, busBytes int, next backend) *level {
	l := &level{
		stats:      LevelStats{Name: name},
		tags:       cache.New(tags),
		bus:        bus.New(busBytes),
		next:       next,
		hitLatency: hitLatency,
		lineBytes:  tags.LineBytes,
		mshrs:      make([]mshr, mshrs),
		fillq:      queue.New[int](mshrs),
		freeIdx:    make([]int, 0, mshrs),
	}
	if mshrs > smallMSHRFile {
		l.lineIdx = make(map[uint64]int, mshrs)
	}
	// Pop order is ascending index for determinism.
	for i := mshrs - 1; i >= 0; i-- {
		l.freeIdx = append(l.freeIdx, i)
	}
	return l
}

// beginCycle completes any refills whose data has arrived by now,
// installing lines (dirty victims book bus bandwidth and travel down)
// and freeing their MSHRs. It returns the number of lines installed.
func (l *level) beginCycle(now int64) int {
	filled := 0
	for {
		i, ok := l.fillq.Peek()
		if !ok {
			break
		}
		e := &l.mshrs[i]
		if e.fill > now {
			break // FIFO in fill order: nothing behind is due either
		}
		if e.cancelled {
			// The fill was invalidated in flight: the transfer happened
			// (its bus time is already booked) but the line is dead on
			// arrival — nothing installs, nothing is evicted. Freeing the
			// MSHR is still an event worth a tick: it can unblock
			// MSHR-rejected accesses.
			filled++
		} else {
			victim := l.tags.Fill(e.line)
			if e.dirty {
				l.tags.SetDirty(e.line)
			}
			l.stats.Fills++
			filled++
			if victim.Valid && victim.Dirty {
				// The write-back occupies the data bus for one line transfer.
				l.bus.Reserve(now, l.bus.TransferCycles(l.lineBytes))
				l.stats.Writebacks++
				l.next.writeback(victim.Addr, now)
			}
		}
		e.valid = false
		l.mshrsInUse--
		if l.lineIdx != nil {
			delete(l.lineIdx, e.line)
		}
		l.freeIdx = append(l.freeIdx, i)
		l.fillq.Drop()
	}
	return filled
}

// findMSHR returns the pending entry for line, if any. Small files walk
// the fill FIFO, which holds exactly the occupied entries (usually a
// handful); large files use the line index.
func (l *level) findMSHR(line uint64) *mshr {
	if l.lineIdx != nil {
		if i, ok := l.lineIdx[line]; ok {
			return &l.mshrs[i]
		}
		return nil
	}
	var found *mshr
	l.fillq.Scan(func(i int) bool {
		if e := &l.mshrs[i]; e.line == line {
			found = e
			return false
		}
		return true
	})
	return found
}

// alloc claims a free MSHR for a primary miss filling at the given
// cycle. The caller must have checked len(l.freeIdx) > 0.
func (l *level) alloc(line uint64, fill int64, dirty bool) {
	idx := l.freeIdx[len(l.freeIdx)-1]
	l.freeIdx = l.freeIdx[:len(l.freeIdx)-1]
	l.mshrs[idx] = mshr{line: line, fill: fill, dirty: dirty, valid: true}
	if l.lineIdx != nil {
		l.lineIdx[line] = idx
	}
	l.mshrsInUse++
	if !l.fillq.Push(idx) {
		panic("mem: fill queue full despite a free MSHR")
	}
}

// fetch implements backend for shared levels: the level above requests a
// line arriving at cycle ready. Tags are probed when the request is
// issued (the same eager-timing approximation the flat model uses for
// its bus booking); fills install at their fill cycle via beginCycle, so
// requests racing a pending refill merge into its MSHR instead.
func (l *level) fetch(line uint64, ready int64) (int64, bool) {
	if l.tags.Lookup(line) {
		l.stats.Accesses++
		return ready + l.hitLatency, true
	}
	// Merge into a pending fetch of the same line: a delayed hit. The
	// data cannot be forwarded up before it arrives here, nor faster
	// than a hit could serve it.
	if e := l.findMSHR(line); e != nil {
		e.cancelled = false // a fresh request re-arms a cancelled fill
		l.stats.Accesses++
		l.stats.SecondaryMisses++
		avail := ready + l.hitLatency
		if e.fill > avail {
			avail = e.fill
		}
		return avail, true
	}
	if len(l.freeIdx) == 0 {
		l.stats.MSHRRejects++
		return 0, false
	}
	// Primary miss: tag probe, one cycle on the command channel, then
	// the next level down — mirroring the L1 miss pipeline.
	req := ready + l.hitLatency + 1
	avail, ok := l.next.fetch(line, req)
	if !ok {
		return 0, false // a level below is out of MSHRs; nothing changed here
	}
	l.stats.Accesses++
	l.stats.Misses++
	fill := l.bus.Reserve(avail, l.bus.TransferCycles(l.lineBytes))
	l.alloc(line, fill, false)
	if l.sched != nil {
		l.sched(fill)
	}
	return fill, true
}

// invalidate kills this level's copy of line on a remote core's write
// (write-invalidate coherence): a cached copy is dropped — a dirty one
// is first written back downstream, booking the level's bus like any
// write-back, so the modified data survives at the shared level — and a
// pending fill is cancelled in flight (the transfer completes but the
// line is dead on arrival; see mshr.cancelled). Reports whether a copy
// (cached or in flight) was present.
func (l *level) invalidate(line uint64, now int64) bool {
	if dirty, present := l.tags.Invalidate(line); present {
		l.stats.Invalidations++
		if dirty {
			l.bus.Reserve(now, l.bus.TransferCycles(l.lineBytes))
			l.stats.CoherenceWritebacks++
			l.next.writeback(line, now)
		}
		return true
	}
	if e := l.findMSHR(line); e != nil && !e.cancelled {
		e.cancelled = true
		e.dirty = false
		l.stats.Invalidations++
		return true
	}
	return false
}

// writeback implements backend: a dirty line evicted by the level above
// arrives at cycle now. A hit dirties the line; a write to a pending
// fetch merges; a miss installs the line directly — the whole line is
// being written, so nothing is fetched — evicting (and pushing down) a
// dirty victim like a fill would.
func (l *level) writeback(line uint64, now int64) {
	if l.tags.Lookup(line) {
		l.tags.SetDirty(line)
		return
	}
	if e := l.findMSHR(line); e != nil {
		e.dirty = true
		e.cancelled = false // the merged write re-arms a cancelled fill
		return
	}
	victim := l.tags.Fill(line)
	l.tags.SetDirty(line)
	l.stats.WriteAllocates++
	if victim.Valid && victim.Dirty {
		l.bus.Reserve(now, l.bus.TransferCycles(l.lineBytes))
		l.stats.Writebacks++
		l.next.writeback(victim.Addr, now)
	}
}
