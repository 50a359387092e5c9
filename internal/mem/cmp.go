package mem

import "fmt"

// This file composes one or more cores' private memory systems over
// the lower levels: the Interconnect owns everything below the private
// L1s — the flat L2 terminus or the finite shared hierarchy (or one
// private chain per core over the shared DRAM, for the private-L2
// ablation axis), plus the write-invalidate coherence fabric between the
// L1s. A one-core interconnect is the paper's machine.
//
// Coherence is deliberately simple (and documented in DESIGN.md §9): on
// every store a core performs, the interconnect eagerly invalidates the
// line in every other core's private levels — a cached copy dies (a
// dirty one is first written back downstream, so the modified data
// migrates to the shared level), and an in-flight fill is cancelled
// (mshr.cancelled). Reads do not snoop dirty remote copies; the model
// assumes the shared level is kept current by the invalidation
// write-backs, which is the inclusive-hierarchy approximation. All
// traffic timing is eager, matching the eager tag-probe approximation
// the single-core miss pipeline already uses.

// Interconnect is the memory fabric of a machine of one or more cores:
// the levels below the cores' private L1s, and the coherence broadcast
// between them. Create with NewInterconnect, then attach one core per
// System slot. Like System, it is single-goroutine by design: the CMP
// driver ticks cores in a fixed order, so shared-level arbitration is
// first-come-first-served by core index within a cycle — deterministic,
// and independent of host scheduling.
type Interconnect struct {
	cfg   Config
	cores int

	// levels is the shared chain under every L1 (levels[0] is the shared
	// L2), nil with PrivateHierarchy or the flat model.
	levels     []*level
	levelStats []LevelStats
	// priv[c] is core c's private chain over the shared DRAM
	// (PrivateHierarchy only).
	priv      [][]*level
	privStats [][]LevelStats

	systems []*System

	// now mirrors the current cycle (maintained by BeginCycle) so
	// coherence traffic triggered from any core's access path books bus
	// time at the right cycle.
	now int64

	// disjoint declares that no line is ever cached by two cores (the
	// workload gives every context a private address space, as the
	// built-in generators do). The *functional* warm path then skips its
	// write-invalidate broadcast — a pure optimization, equivalent by
	// construction since the broadcast could never find a remote copy.
	// The timed coherence path is untouched: its probes book counters
	// and the equivalence is the workload's claim, not the machine's.
	disjoint bool
}

// NewInterconnect builds the memory fabric for the given number of
// cores. Each core's private System is pre-built; fetch it with System.
// It is the only way to build a memory system: the paper's single-core
// machine is a one-core interconnect.
func NewInterconnect(cfg Config, cores int) (*Interconnect, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cores < 1 {
		return nil, fmt.Errorf("mem: interconnect needs at least one core, got %d", cores)
	}
	// One core has no remote copies to invalidate, whatever the workload.
	ic := &Interconnect{cfg: cfg, cores: cores, disjoint: cores == 1}

	// Backend below each core's L1, by mode.
	lower := make([]backend, cores)
	switch {
	case len(cfg.Hierarchy) == 0:
		// Flat model: the infinite L2 accepts every request — the cores
		// contend on nothing below their private buses, so one stateless
		// terminus serves all.
		for c := range lower {
			lower[c] = terminus{latency: cfg.L2Latency}
		}
	case cfg.PrivateHierarchy:
		// One private chain per core over the shared (infinite-bandwidth)
		// DRAM; each chain's buses model its own refill/write-back paths.
		ic.priv = make([][]*level, cores)
		ic.privStats = make([][]LevelStats, cores)
		n := len(cfg.Hierarchy)
		for c := 0; c < cores; c++ {
			var down backend = terminus{latency: cfg.DRAMLatency}
			ic.privStats[c] = make([]LevelStats, n)
			ic.priv[c] = make([]*level, n)
			for i := n - 1; i >= 0; i-- {
				spec := cfg.Hierarchy[i]
				ic.privStats[c][i].Name = fmt.Sprintf("c%d.%s", c, levelName(spec, i))
				ic.priv[c][i] = newLevel(spec.Cache, spec.MSHRs, spec.HitLatency,
					spec.BusBytesPerCycle, down, &ic.privStats[c][i])
				down = ic.priv[c][i]
			}
			lower[c] = down
		}
	default:
		// One shared chain: every core's L1 misses into the same levels,
		// contending for their MSHRs and buses.
		var down backend = terminus{latency: cfg.DRAMLatency}
		n := len(cfg.Hierarchy)
		ic.levelStats = make([]LevelStats, n)
		ic.levels = make([]*level, n)
		for i := n - 1; i >= 0; i-- {
			spec := cfg.Hierarchy[i]
			ic.levelStats[i].Name = levelName(spec, i)
			ic.levels[i] = newLevel(spec.Cache, spec.MSHRs, spec.HitLatency,
				spec.BusBytesPerCycle, down, &ic.levelStats[i])
			down = ic.levels[i]
		}
		for c := range lower {
			lower[c] = down
		}
	}

	ic.systems = make([]*System, cores)
	for c := 0; c < cores; c++ {
		s := &System{cfg: cfg, ic: ic, coreID: c}
		s.l1Stats.Name = fmt.Sprintf("c%d.L1", c)
		s.l1 = newLevel(cfg.L1, cfg.MSHRs, cfg.HitLatency, cfg.BusBytesPerCycle, lower[c], &s.l1Stats)
		ic.systems[c] = s
	}
	return ic, nil
}

// Cores returns the number of attached cores.
func (ic *Interconnect) Cores() int { return ic.cores }

// System returns core c's private memory system (L1 + ports + MSHRs over
// the shared fabric).
func (ic *Interconnect) System(c int) *System { return ic.systems[c] }

// SetDisjointAddressSpaces declares (or retracts) the workload's promise
// that no two cores ever touch the same line, letting the functional
// warm path skip its invalidate broadcast (see the disjoint field). A
// one-core interconnect stays disjoint.
func (ic *Interconnect) SetDisjointAddressSpaces(v bool) { ic.disjoint = v || ic.cores == 1 }

// eachLevel visits every level the interconnect owns (shared chain or
// all private chains).
func (ic *Interconnect) eachLevel(fn func(*level)) {
	for _, l := range ic.levels {
		fn(l)
	}
	for _, chain := range ic.priv {
		for _, l := range chain {
			fn(l)
		}
	}
}

// SetFillScheduler registers fn to be called with every future fill
// cycle a level the interconnect owns books. The CMP driver registers
// the cores' event calendars here, so fast-forwarding never skips the
// cycle at which a shared (or private-L2) cache installs a line and its
// dirty victim, if any, books bus time — the invariant the
// stepped/fast equivalence suite relies on. The flat model books no
// internal fills; fn is never called there. The L1s' own fill times
// travel back through access Results and are scheduled by the cores.
func (ic *Interconnect) SetFillScheduler(fn func(at int64)) {
	ic.eachLevel(func(l *level) { l.sched = fn })
}

// BeginCycle advances the fabric to the given cycle, completing due
// refills bottom-up in every chain (private chains in core order). The
// cores' own L1s advance in their System.BeginCycle calls, which the CMP
// driver makes after this. Returns the number of lines installed (or
// cancelled fills retired), zero on quiescent cycles.
func (ic *Interconnect) BeginCycle(now int64) int {
	ic.now = now
	filled := 0
	for i := len(ic.levels) - 1; i >= 0; i-- {
		filled += ic.levels[i].beginCycle(now)
	}
	for _, chain := range ic.priv {
		for i := len(chain) - 1; i >= 0; i-- {
			filled += chain[i].beginCycle(now)
		}
	}
	return filled
}

// invalidateRemote broadcasts a write-invalidation for line from core
// `from` to every other core's private levels (L1, and the private chain
// when the hierarchy is replicated). Called from the writing core's
// access path at the current cycle.
func (ic *Interconnect) invalidateRemote(from int, line uint64) {
	for c, s := range ic.systems {
		if c == from {
			continue
		}
		s.l1.invalidate(line, ic.now)
	}
	for c, chain := range ic.priv {
		if c == from {
			continue
		}
		for _, l := range chain {
			l.invalidate(line, ic.now)
		}
	}
}

// LevelStats snapshots the interconnect-owned levels' counters with
// downstream-bus utilization over the measurement window ending at cycle
// end: the shared chain top-down, or each core's private chain (core
// order, top-down within a core). Nil in the flat model.
func (ic *Interconnect) LevelStats(end, window int64) []LevelStats {
	var out []LevelStats
	ic.eachLevel(func(l *level) {
		ls := *l.lstats
		ls.BusUtilization = l.bus.Utilization(end, window)
		out = append(out, ls)
	})
	return out
}

// ResetStats clears the interconnect-owned levels' counters and bus
// accounting (names survive); the cores' Systems reset their own L1s.
func (ic *Interconnect) ResetStats() {
	ic.eachLevel(func(l *level) {
		*l.lstats = LevelStats{Name: l.lstats.Name}
		l.bus.Reset()
	})
}
