// Package mem models the lockup-free memory subsystem of the paper's
// machine (Figure 2) as a composable hierarchy of cache levels:
//
//   - L1 on-chip data cache: 64 KB direct-mapped, 32-byte lines,
//     write-back/write-allocate, 1-cycle hit, a configurable number of
//     ports (4 in the multithreaded machine, 2 in the Section-2 machine);
//   - 16 MSHRs making the cache lockup-free: misses to distinct lines
//     proceed in parallel, secondary misses merge into the pending entry;
//   - below the L1, either the paper's infinite, multibanked off-chip L2
//     with a fixed hit latency (the default model, swept 1–256 cycles), or
//     a configurable chain of finite shared cache levels (Hierarchy) —
//     each with its own tags, MSHRs and write-backs — terminated by a
//     fixed-latency DRAM behind a bandwidth-limited memory bus;
//   - a 16-byte/cycle bus per level carrying miss requests, line refills
//     and dirty write-backs.
//
// An Interconnect owns every chain below the L1s, for one core (the
// paper's machine) or several; each core's System is its slot there
// and holds the chain below its own L1.
// The subsystem is cycle-stepped: the driver calls
// Interconnect.BeginCycle and then each core's System.BeginCycle once
// per cycle (completing fills bottom-up and freeing MSHRs); the core then
// issues
// Load/StoreCommit accesses, which either succeed with a data-ready cycle
// or report a structural stall (no free port, no free MSHR at some level)
// to be retried next cycle.
package mem

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
)

// Config parameterises the memory subsystem.
type Config struct {
	// L1 is the data cache geometry.
	L1 cache.Config
	// Ports is the number of L1 accesses accepted per cycle.
	Ports int
	// MSHRs is the number of L1 miss status holding registers.
	MSHRs int
	// HitLatency is the L1 hit latency in cycles.
	HitLatency int64
	// L2Latency is the flat infinite L2's access latency in cycles (the
	// paper's swept parameter). It applies only to the default model and
	// must be zero when Hierarchy is set.
	L2Latency int64
	// BusBytesPerCycle is the L1's downstream bus width (16 in Figure 2).
	BusBytesPerCycle int

	// Hierarchy, when non-empty, replaces the infinite flat L2 with a
	// chain of finite shared cache levels under the L1 (Hierarchy[0] is
	// the L2), the last of which is backed by DRAM. Empty selects the
	// paper's default flat model; the field is normalized away at
	// defaults so existing configuration hashes are unchanged.
	Hierarchy []LevelSpec `json:",omitempty"`
	// DRAMLatency is the fixed DRAM access latency behind the last
	// hierarchy level; its bandwidth limit is the last level's
	// BusBytesPerCycle (the memory bus). Hierarchy mode only.
	DRAMLatency int64 `json:",omitempty"`

	// PrivateHierarchy replicates the Hierarchy levels per core of a
	// chip multiprocessor — each core gets its own finite chain over the
	// shared DRAM — instead of sharing one chain between the cores.
	// Meaningful only under an Interconnect with more than one core
	// (config.Machine.Validate rejects it on single-core machines).
	PrivateHierarchy bool `json:",omitempty"`
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return err
	}
	switch {
	case c.Ports <= 0:
		return fmt.Errorf("mem: ports %d must be positive", c.Ports)
	case c.MSHRs <= 0:
		return fmt.Errorf("mem: MSHRs %d must be positive", c.MSHRs)
	case c.HitLatency <= 0:
		return fmt.Errorf("mem: hit latency %d must be positive", c.HitLatency)
	case c.BusBytesPerCycle <= 0:
		return fmt.Errorf("mem: bus width %d must be positive", c.BusBytesPerCycle)
	}
	if len(c.Hierarchy) == 0 {
		switch {
		case c.L2Latency <= 0:
			return fmt.Errorf("mem: L2 latency %d must be positive", c.L2Latency)
		case c.DRAMLatency != 0:
			return fmt.Errorf("mem: DRAM latency %d requires a hierarchy", c.DRAMLatency)
		case c.PrivateHierarchy:
			return fmt.Errorf("mem: private hierarchy requires a hierarchy")
		}
		return nil
	}
	// Finite hierarchy: the flat latency is meaningless and must be
	// normalized to zero (config.Machine.WithHierarchy and
	// Request.Normalized do) so two spellings of the same machine cannot
	// hash apart.
	if c.L2Latency != 0 {
		return fmt.Errorf("mem: flat L2 latency %d is unused with a hierarchy (set it to 0)", c.L2Latency)
	}
	if c.DRAMLatency <= 0 {
		return fmt.Errorf("mem: DRAM latency %d must be positive with a hierarchy", c.DRAMLatency)
	}
	for _, lv := range c.Hierarchy {
		if err := lv.Validate(c.L1); err != nil {
			return err
		}
	}
	return nil
}

// levelName returns the display name of hierarchy level i (L2 onward).
func levelName(spec LevelSpec, i int) string {
	if spec.Name != "" {
		return spec.Name
	}
	return fmt.Sprintf("L%d", i+2)
}

// StallReason classifies why an access could not be accepted this cycle.
type StallReason uint8

const (
	// StallNone: the access was accepted.
	StallNone StallReason = iota
	// StallPort: all L1 ports are taken this cycle.
	StallPort
	// StallMSHR: the access misses and no L1 MSHR is free.
	StallMSHR
	// StallLowerMSHR: the access misses through to a shared level whose
	// MSHR file is full (finite hierarchy only).
	StallLowerMSHR
)

func (s StallReason) String() string {
	switch s {
	case StallNone:
		return "none"
	case StallPort:
		return "port"
	case StallMSHR:
		return "mshr"
	case StallLowerMSHR:
		return "lower-mshr"
	default:
		return fmt.Sprintf("stall(%d)", uint8(s))
	}
}

// Result reports the outcome of a cache access.
type Result struct {
	// OK reports whether the access was accepted. When false, Stall gives
	// the structural reason and the access must be retried.
	OK bool
	// Stall is the structural hazard that rejected the access.
	Stall StallReason
	// ReadyAt is the cycle the data is available (loads) or the line is
	// written (stores). Only meaningful when OK.
	ReadyAt int64
	// Miss reports whether the access missed in L1.
	Miss bool
}

// Stats aggregates L1/memory subsystem counters. Miss counters are
// *primary* misses (one per line fetched from below); accesses that merge
// into a pending MSHR are delayed hits and appear only in
// SecondaryMisses — the accounting Figure 1-c of the paper implies (its
// ratios track lines fetched, not stalled accesses). Shared hierarchy
// levels keep their own LevelStats (Interconnect.LevelStats).
type Stats struct {
	LoadAccesses    int64
	LoadMisses      int64
	StoreAccesses   int64
	StoreMisses     int64
	SecondaryMisses int64 // accesses merged into a pending MSHR (delayed hits)
	Writebacks      int64 // dirty lines written back below L1
	Fills           int64 // lines installed in L1
	PortRejects     int64 // accesses rejected for lack of a port
	MSHRRejects     int64 // accesses rejected for lack of an L1 MSHR
	// LowerRejects counts accesses rejected because a shared level below
	// ran out of MSHRs (always 0 in the default flat model, and omitted
	// from reports there so result hashes are unchanged).
	LowerRejects int64 `json:",omitempty"`
}

// LoadMissRatio returns load misses / load accesses (0 if no loads).
func (s Stats) LoadMissRatio() float64 {
	if s.LoadAccesses == 0 {
		return 0
	}
	return float64(s.LoadMisses) / float64(s.LoadAccesses)
}

// StoreMissRatio returns store misses / store accesses (0 if no stores).
func (s Stats) StoreMissRatio() float64 {
	if s.StoreAccesses == 0 {
		return 0
	}
	return float64(s.StoreMisses) / float64(s.StoreAccesses)
}

// Merge sums another L1's counters into s — CMP reports aggregate the
// cores' private L1s into the one Stats slot single-core reports use.
func (s *Stats) Merge(o Stats) {
	s.LoadAccesses += o.LoadAccesses
	s.LoadMisses += o.LoadMisses
	s.StoreAccesses += o.StoreAccesses
	s.StoreMisses += o.StoreMisses
	s.SecondaryMisses += o.SecondaryMisses
	s.Writebacks += o.Writebacks
	s.Fills += o.Fills
	s.PortRejects += o.PortRejects
	s.MSHRRejects += o.MSHRRejects
	s.LowerRejects += o.LowerRejects
}

// System is one core's private memory subsystem: the port-arbitrated
// L1 level over the chain its Interconnect owns below it (the shared
// levels, this core's private chain, or none: the flat infinite L2),
// ending in a fixed-latency terminus. Build it with NewInterconnect — a
// single-core machine is a one-core interconnect — and fetch it with
// Interconnect.System. Not safe for concurrent use (the simulator is
// single-goroutine by design).
type System struct {
	cfg Config
	l1  *level
	// chain is the finite chain below the L1, top-down: the shared
	// chain, this core's private chain, or nil in the flat model.
	chain []*level

	now       int64
	portsUsed int
	stats     Stats

	// ic owns every level below the L1; stores broadcast
	// write-invalidations through it to the other cores' private levels
	// (none on a one-core machine). coreID is this System's slot.
	ic     *Interconnect
	coreID int
}

// Bus exposes the L1's downstream bus for utilization reporting.
func (s *System) Bus() *bus.Bus { return s.l1.bus }

// Cache exposes the L1 tag array (for tests and reports).
func (s *System) Cache() *cache.Cache { return s.l1.tags }

// Stats returns a snapshot of the L1 counters.
func (s *System) Stats() Stats {
	st := s.stats
	st.Fills = s.l1.stats.Fills
	st.Writebacks = s.l1.stats.Writebacks
	return st
}

// L1LevelStats returns the private L1's counters in LevelStats form
// (named "c<i>.L1" on CMP machines) with bus utilization over the
// window ending at cycle end. The CMP report lists one per core ahead
// of the interconnect's shared levels, so per-core coherence traffic
// (invalidations, coherence write-backs) is visible per L1.
func (s *System) L1LevelStats(end, window int64) LevelStats {
	ls := s.l1.stats
	ls.Accesses = s.stats.LoadAccesses + s.stats.StoreAccesses
	ls.Misses = s.stats.LoadMisses + s.stats.StoreMisses
	ls.SecondaryMisses = s.stats.SecondaryMisses
	ls.MSHRRejects = s.stats.MSHRRejects
	ls.BusUtilization = s.l1.bus.Utilization(end, window)
	return ls
}

// Quiescent reports whether no miss is in flight at the L1 or at any
// finite level below it (this core's view of the chain): the
// memory-side half of the drained-machine condition sampled execution
// warps from.
func (s *System) Quiescent() bool {
	if s.l1.mshrsInUse > 0 {
		return false
	}
	for _, l := range s.chain {
		if l.mshrsInUse > 0 {
			return false
		}
	}
	return true
}

// BeginCycle advances the L1 to the given cycle: it releases the access
// ports and completes any refills whose data has arrived, installing
// lines (write-backs of dirty victims reserve bus bandwidth) and freeing
// MSHRs. The levels below advance first, in Interconnect.BeginCycle, so
// a line installs below before (hypothetically) being requested from
// above in the same cycle. It returns the number of lines installed,
// which is zero on quiescent cycles.
func (s *System) BeginCycle(now int64) int {
	s.now = now
	s.portsUsed = 0
	return s.l1.beginCycle(now)
}

// access implements the shared load/store path. isStore selects
// write-allocate dirty marking.
func (s *System) access(addr uint64, isStore bool) Result {
	if s.portsUsed >= s.cfg.Ports {
		s.stats.PortRejects++
		return Result{Stall: StallPort}
	}
	l1 := s.l1
	line := l1.tags.LineAddr(addr)
	if l1.tags.Lookup(addr) {
		s.portsUsed++
		s.count(isStore, false)
		if isStore {
			l1.tags.SetDirty(addr)
			s.ic.invalidateRemote(s.coreID, line)
		}
		return Result{OK: true, ReadyAt: s.now + s.cfg.HitLatency}
	}
	// Miss. Merge into a pending MSHR if one covers the line: a delayed
	// hit (no new traffic below), but the data still arrives at fill time.
	if e := l1.findMSHR(line); e != nil {
		s.portsUsed++
		s.count(isStore, false)
		s.stats.SecondaryMisses++
		e.cancelled = false // a fresh access re-arms an invalidated fill
		if isStore {
			e.dirty = true
			s.ic.invalidateRemote(s.coreID, line)
		}
		return Result{OK: true, ReadyAt: e.fill, Miss: true}
	}
	if len(l1.freeIdx) == 0 {
		s.stats.MSHRRejects++
		return Result{Stall: StallMSHR}
	}
	// Tag probe (hit latency), one cycle for the request on the address/
	// command channel, then the level below serves the line, which
	// returns over the 16-byte data bus (the contended resource;
	// requests ride a separate command channel in this split-transaction
	// interface, so accesses below from different MSHRs overlap).
	reqDone := s.now + s.cfg.HitLatency + 1
	avail, ok := l1.next.fetch(line, reqDone)
	if !ok {
		// A shared level below is out of MSHRs: nothing was modified at
		// any level; retry like an L1 MSHR conflict.
		s.stats.LowerRejects++
		return Result{Stall: StallLowerMSHR}
	}
	s.portsUsed++
	s.count(isStore, true)
	if isStore {
		// The invalidation rides the miss request: remote copies die at
		// the (eager) access time, matching the eager tag-probe timing
		// approximation the rest of the miss pipeline uses.
		s.ic.invalidateRemote(s.coreID, line)
	}
	fill := l1.bus.Reserve(avail, l1.bus.TransferCycles(s.cfg.L1.LineBytes))
	l1.alloc(line, fill, isStore)
	return Result{OK: true, ReadyAt: fill, Miss: true}
}

func (s *System) count(isStore, miss bool) {
	if isStore {
		s.stats.StoreAccesses++
		if miss {
			s.stats.StoreMisses++
		}
	} else {
		s.stats.LoadAccesses++
		if miss {
			s.stats.LoadMisses++
		}
	}
}

// Load performs a load access at the current cycle. On a hit the data is
// ready after the hit latency; on a miss, when the line refill completes.
func (s *System) Load(addr uint64) Result {
	return s.access(addr, false)
}

// StoreCommit writes a graduating store into the cache (write-back,
// write-allocate): a hit dirties the line, a miss fetches the line and
// dirties it on arrival. ReadyAt is when the store is globally performed,
// which holds its SAQ entry until then.
func (s *System) StoreCommit(addr uint64) Result {
	return s.access(addr, true)
}

// ResetStats clears the L1's counters and bus accounting (used to
// exclude warm-up from measurements); Interconnect.ResetStats clears the
// levels below. Cache and MSHR state are preserved.
func (s *System) ResetStats() {
	s.stats = Stats{}
	s.l1.stats = LevelStats{Name: s.l1.stats.Name}
	s.l1.bus.Reset()
}
