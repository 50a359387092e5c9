package mem

import "fmt"

// This file composes one or more cores' private memory systems over
// the lower levels. The Interconnect owns every finite chain below the
// L1s — one shared chain, one private chain per core over the shared
// DRAM (the private-L2 ablation axis), or none in the flat model — and
// each core's System records the chain below its own L1. A one-core
// interconnect is the paper's machine.
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
	cfg Config

	// chains are the finite chains the interconnect owns, each top-down:
	// one shared chain, one per core under PrivateHierarchy, or none in
	// the flat model. Each System holds the chain below its own L1.
	chains  [][]*level
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
	ic := &Interconnect{cfg: cfg, disjoint: cores == 1, systems: make([]*System, cores)}
	// Every core's L1 misses into one shared chain, contending for its
	// MSHRs and buses (no chain in the flat model: the infinite L2 is a
	// terminus), or into its own chain under a private hierarchy.
	var shared []*level
	if !cfg.PrivateHierarchy {
		shared = ic.newChain("")
	}
	for c := range ic.systems {
		s := &System{cfg: cfg, ic: ic, coreID: c, chain: shared}
		if cfg.PrivateHierarchy {
			s.chain = ic.newChain(fmt.Sprintf("c%d.", c))
		}
		var lower backend = terminus{latency: cfg.L2Latency}
		if len(s.chain) > 0 {
			lower = s.chain[0]
		}
		s.l1 = newLevel(fmt.Sprintf("c%d.L1", c), cfg.L1, cfg.MSHRs, cfg.HitLatency, cfg.BusBytesPerCycle, lower)
		ic.systems[c] = s
	}
	return ic, nil
}

// newChain builds one chain of the configured hierarchy over the DRAM
// terminus, top-down, with every level's name prefixed by prefix, and
// records it as owned. It returns nil in the flat model.
func (ic *Interconnect) newChain(prefix string) []*level {
	n := len(ic.cfg.Hierarchy)
	if n == 0 {
		return nil
	}
	chain := make([]*level, n)
	var down backend = terminus{latency: ic.cfg.DRAMLatency}
	for i := n - 1; i >= 0; i-- {
		spec := ic.cfg.Hierarchy[i]
		chain[i] = newLevel(prefix+levelName(spec, i), spec.Cache, spec.MSHRs,
			spec.HitLatency, spec.BusBytesPerCycle, down)
		down = chain[i]
	}
	ic.chains = append(ic.chains, chain)
	return chain
}

// System returns core c's private memory system (L1 + ports + MSHRs over
// the shared fabric).
func (ic *Interconnect) System(c int) *System { return ic.systems[c] }

// SetDisjointAddressSpaces declares (or retracts) the workload's promise
// that no two cores ever touch the same line, letting the functional
// warm path skip its invalidate broadcast (see the disjoint field). A
// one-core interconnect stays disjoint.
func (ic *Interconnect) SetDisjointAddressSpaces(v bool) { ic.disjoint = v || len(ic.systems) == 1 }

// SetFillScheduler registers fn to be called with every future fill
// cycle a level the interconnect owns books. The CMP driver registers
// the cores' event calendars here, so fast-forwarding never skips the
// cycle at which a shared (or private-L2) cache installs a line and its
// dirty victim, if any, books bus time — the invariant the
// stepped/fast equivalence suite relies on. The flat model books no
// internal fills; fn is never called there. The L1s' own fill times
// travel back through access Results and are scheduled by the cores.
func (ic *Interconnect) SetFillScheduler(fn func(at int64)) {
	for _, chain := range ic.chains {
		for _, l := range chain {
			l.sched = fn
		}
	}
}

// BeginCycle advances the fabric to the given cycle, completing due
// refills bottom-up within each owned chain, chains in order. The cores'
// own L1s advance in their System.BeginCycle calls, which the CMP driver
// makes after this. Returns the number of lines installed (or cancelled
// fills retired), zero on quiescent cycles.
func (ic *Interconnect) BeginCycle(now int64) int {
	ic.now = now
	filled := 0
	for _, chain := range ic.chains {
		for i := len(chain) - 1; i >= 0; i-- {
			filled += chain[i].beginCycle(now)
		}
	}
	return filled
}

// invalidateRemote broadcasts a write-invalidation for line from core
// `from` to every other core's private levels: its L1, then its chain
// when the hierarchy is private (a shared chain holds the one copy every
// core reads). Called from the writing core's access path at the current
// cycle. Visiting core by core is as good as any order: a core's private
// levels, and the buses they book, are reached only through that core,
// and the DRAM its private chain writes back into holds no state.
func (ic *Interconnect) invalidateRemote(from int, line uint64) {
	for c, s := range ic.systems {
		if c == from {
			continue
		}
		s.l1.invalidate(line, ic.now)
		if ic.cfg.PrivateHierarchy {
			for _, l := range s.chain {
				l.invalidate(line, ic.now)
			}
		}
	}
}

// LevelStats snapshots the interconnect-owned levels' counters with
// downstream-bus utilization over the measurement window ending at cycle
// end: each owned chain top-down, chains in order (the shared chain, or
// the private chains in core order). Nil in the flat model.
func (ic *Interconnect) LevelStats(end, window int64) []LevelStats {
	var out []LevelStats
	for _, chain := range ic.chains {
		for _, l := range chain {
			ls := l.stats
			ls.BusUtilization = l.bus.Utilization(end, window)
			out = append(out, ls)
		}
	}
	return out
}

// ResetStats clears the interconnect-owned levels' counters and bus
// accounting (names survive); the cores' Systems reset their own L1s.
func (ic *Interconnect) ResetStats() {
	for _, chain := range ic.chains {
		for _, l := range chain {
			l.stats = LevelStats{Name: l.stats.Name}
			l.bus.Reset()
		}
	}
}
