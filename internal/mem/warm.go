package mem

import "repro/internal/cache"

// This file is the functional warm path behind the simulator's sampling
// gaps: Warm advances the cache hierarchy's *architectural* state for one
// memory reference — tags, LRU order, dirty bits, down the whole chain —
// with none of the timing machinery (no ports, no MSHRs, no buses, no
// latencies) and none of the statistics. The sampling driver drains the
// pipeline first, so Warm never races an in-flight timed fill; it simply
// installs lines the way the timed path eventually would, keeping the
// caches hot across a fast-forwarded gap so the next measured unit does
// not start cold (the cold-start bias SMARTS warming exists to kill).

// Warm touches addr functionally: a store dirties the line, a miss
// installs it in the L1 and allocates it down the chain to the first
// level that already holds it. Dirty L1 victims write back into the
// level below (allocate + dirty, mirroring the timed write-allocate
// path); victims of deeper levels are dropped — DRAM backs everything,
// so losing them only costs warm-up fidelity, never correctness. Unless
// the interconnect is disjoint, a store also runs the write-invalidate
// broadcast so remote copies die exactly as they would in the timed
// model.
//
// Where DirectWarmL1 returns a cache, cache.TouchDirect on it does all
// of this in one probe; the functional warp checks that once per call
// and calls Warm only where it returns nil.
func (s *System) Warm(addr uint64, store bool) {
	l1, chain := s.l1.tags, s.chain
	line := l1.LineAddr(addr)
	if !l1.Lookup(addr) {
		for _, l := range chain {
			if l.tags.Lookup(line) {
				break
			}
			l.tags.Fill(line)
		}
		if v := l1.Fill(line); v.Valid && v.Dirty && len(chain) > 0 {
			if !chain[0].tags.Lookup(v.Addr) {
				chain[0].tags.Fill(v.Addr)
			}
			chain[0].tags.SetDirty(v.Addr)
		}
	}
	if store {
		l1.SetDirty(line)
		// With a declared-disjoint workload no remote copy can exist, so
		// the broadcast is skipped — the dominant cost of warming a
		// many-core machine through a sampling gap.
		if !s.ic.disjoint {
			s.ic.warmInvalidate(s.coreID, line)
		}
	}
}

// DirectWarmL1 returns the L1 tag array when warming a reference is
// nothing but cache.TouchDirect on it, and nil otherwise. That holds on
// the paper's machine: a direct-mapped L1 over the flat model, with no
// broadcast to run (one core, or a CMP declared disjoint). There is then
// no level below to allocate into or write a victim back to.
func (s *System) DirectWarmL1() *cache.Cache {
	if len(s.chain) == 0 && s.cfg.L1.Assoc == 1 && s.ic.disjoint {
		return s.l1.tags
	}
	return nil
}

// warmInvalidate is the functional twin of invalidateRemote, in the
// same core-by-core order: remote copies of the line die (tags only — no
// bus time, no counters). Under a shared chain a dirty remote L1 copy
// migrates into the top shared level, matching the timed model's
// write-back-on-invalidate migration; under a private hierarchy the
// remote core's chain dies with its L1, so there is nothing to migrate
// into.
func (ic *Interconnect) warmInvalidate(from int, line uint64) {
	for c, s := range ic.systems {
		if c == from {
			continue
		}
		dirty, present := s.l1.tags.Invalidate(line)
		switch {
		case ic.cfg.PrivateHierarchy:
			for _, l := range s.chain {
				l.tags.Invalidate(line)
			}
		case present && dirty && len(s.chain) > 0:
			top := s.chain[0].tags
			if !top.Lookup(line) {
				top.Fill(line)
			}
			top.SetDirty(line)
		}
	}
}

// MergeCounters sums another window's counters into l (Name and the
// derived BusUtilization are left to the caller): sampled runs aggregate
// per-unit level snapshots into one report.
func (l *LevelStats) MergeCounters(o LevelStats) {
	l.Accesses += o.Accesses
	l.Misses += o.Misses
	l.SecondaryMisses += o.SecondaryMisses
	l.MSHRRejects += o.MSHRRejects
	l.Fills += o.Fills
	l.WriteAllocates += o.WriteAllocates
	l.Writebacks += o.Writebacks
	l.Invalidations += o.Invalidations
	l.CoherenceWritebacks += o.CoherenceWritebacks
}
