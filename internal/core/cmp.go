package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CMP composes N cores — each a complete SMT decoupled processor with
// its own contexts, issue logic and private L1 — over a shared memory
// fabric (mem.Interconnect). It is the only machine shape: the paper's
// single-core machine is a one-core CMP. The cores tick in lockstep, in
// fixed index order within each cycle, so shared-level arbitration is
// first-come-first-served by core index: a deliberate, documented bias
// that makes every run bit-reproducible and independent of GOMAXPROCS
// (the whole machine advances on one goroutine).
//
// Fast-forward: a cycle in which no core made progress is provably
// identical to every following cycle up to the earliest event scheduled
// on ANY core's calendar — shared-level fills are broadcast into every
// calendar — so the CMP skips to the minimum over the per-core next
// events and bulk-replays each core's constant per-cycle accounting.
type CMP struct {
	cfg   config.Machine
	ic    *mem.Interconnect
	cores []*Core

	// progressed reports whether the last Tick changed any machine state
	// (any core progressed, or a shared/private lower level installed a
	// line).
	progressed bool
}

// NewCMP builds the machine for configuration m (after applying the
// latency scaling rule): CoreCount() cores of Threads contexts each, with
// one instruction source per context, core-major: sources[c*Threads+t]
// feeds core c's context t.
func NewCMP(m config.Machine, sources []trace.Reader) (*CMP, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m = m.Effective()
	n := m.CoreCount()
	if len(sources) != m.TotalContexts() {
		return nil, fmt.Errorf("core: %d sources for %d cores × %d contexts",
			len(sources), n, m.Threads)
	}
	ic, err := mem.NewInterconnect(m.Mem, n)
	if err != nil {
		return nil, err
	}
	p := &CMP{cfg: m, ic: ic}
	for c := 0; c < n; c++ {
		co, err := newCore(m, sources[c*m.Threads:(c+1)*m.Threads], ic.System(c))
		if err != nil {
			return nil, err
		}
		p.cores = append(p.cores, co)
	}
	// Shared (or private-L2) fills are events for every core: the level's
	// MSHR frees and its tags change at that cycle, which can unblock any
	// core's rejected accesses. Broadcasting into all calendars keeps the
	// fast-forward invariant: the machine ticks at every cycle its state
	// can change.
	ic.SetFillScheduler(func(at int64) {
		for _, co := range p.cores {
			co.cal.schedule(co.now, at)
		}
	})
	return p, nil
}

// Cores returns the number of cores.
func (p *CMP) Cores() int { return len(p.cores) }

// Core returns core c (for tests and reports).
func (p *CMP) Core(c int) *Core { return p.cores[c] }

// Interconnect returns the shared memory fabric.
func (p *CMP) Interconnect() *mem.Interconnect { return p.ic }

// Now returns the current cycle (identical across the lockstep cores).
func (p *CMP) Now() int64 { return p.cores[0].now }

// Graduated sums instructions retired across all cores in the current
// window.
func (p *CMP) Graduated() int64 {
	var g int64
	for _, co := range p.cores {
		g += co.col.Graduated
	}
	return g
}

// Done reports whether every core has drained.
func (p *CMP) Done() bool {
	for _, co := range p.cores {
		if !co.Done() {
			return false
		}
	}
	return true
}

// Tick advances the whole machine by one cycle: the fabric below the
// L1s first (lines install below before any core can request them this
// cycle), then each core in index order. Within a core, stages run back
// to front (Core.Tick).
func (p *CMP) Tick() {
	now := p.cores[0].now + 1
	p.progressed = p.ic.BeginCycle(now) > 0
	for _, co := range p.cores {
		co.Tick()
		if co.progressed {
			p.progressed = true
		}
	}
}

// Step advances by at least one cycle, fast-forwarding over stretches
// in which no core can make progress: when a Tick changes nothing but
// the constant per-cycle stall accounting, every following cycle is
// identical to it until the earliest event on any core's calendar (a
// load or store completes, a branch resolves, fetch unfreezes, an
// operand arrives, a level below installs a line), so Step jumps to the
// cycle before that event and each core bulk-replays its own accounting
// into the same waste buckets stepping would fill. Results are
// bit-identical to calling Tick in a loop, which the equivalence tests
// enforce. The machine never advances past the absolute cycle horizon.
// A tick that discovers source exhaustion can drain the machine without
// registering progress, so a pending skip is dropped once Done.
func (p *CMP) Step(horizon int64) {
	p.Tick()
	if p.progressed || p.Now() >= horizon {
		return
	}
	end := horizon
	for _, co := range p.cores {
		if e := co.nextEventAt() - 1; e < end {
			end = e
		}
	}
	if end > p.Now() && !p.Done() {
		k := end - p.Now()
		for _, co := range p.cores {
			co.fastForward(k)
		}
	}
}

// ResetStats clears every core's collector and L1 counters and the
// shared fabric's level counters (machine state — caches, queues,
// in-flight instructions — carries over): the warm-up/measurement
// boundary.
func (p *CMP) ResetStats() {
	for _, co := range p.cores {
		co.col.Reset()
		co.mem.ResetStats()
	}
	p.ic.ResetStats()
}

// Report assembles the measurement-window report: collector counters
// and L1 stats aggregated over the cores (fixed core order, so the
// float waste buckets are deterministic) and MemLevels listing the
// interconnect-owned shared or private levels. A one-core machine
// reports the paper's single-core shape: core 0's counters as they are,
// no Cores, no per-core retirement and no L1 row. With more cores the
// report adds per-core retirement, and MemLevels lists each core's
// private L1 (with its coherence counters) ahead of the levels below.
func (p *CMP) Report() stats.Report {
	end := p.Now()
	col := p.cores[0].col
	for _, co := range p.cores[1:] {
		col.MergeCore(&co.col)
	}
	window := col.Cycles
	rep := stats.Report{
		Collector: col,
		Threads:   p.cfg.Threads,
		Decoupled: p.cfg.Decoupled,
		L2Latency: p.cfg.Mem.L2Latency,
	}
	n := len(p.cores)
	if n == 1 {
		ms := p.cores[0].mem
		rep.Mem = ms.Stats()
		rep.BusUtilization = ms.Bus().Utilization(end, window)
		rep.MemLevels = p.ic.LevelStats(end, window)
		return rep
	}
	var busUtil float64
	rep.Cores = n
	rep.PerCoreGraduated = make([]int64, n)
	for c, co := range p.cores {
		rep.PerCoreGraduated[c] = co.col.Graduated
		rep.Mem.Merge(co.mem.Stats())
		busUtil += co.mem.Bus().Utilization(end, window)
		rep.MemLevels = append(rep.MemLevels, co.mem.L1LevelStats(end, window))
	}
	rep.BusUtilization = busUtil / float64(n)
	rep.MemLevels = append(rep.MemLevels, p.ic.LevelStats(end, window)...)
	return rep
}
