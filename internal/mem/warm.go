package mem

// This file is the functional warm path behind the simulator's sampling
// gaps: Warm advances the cache hierarchy's *architectural* state for one
// memory reference — tags, LRU order, dirty bits, down the whole chain —
// with none of the timing machinery (no ports, no MSHRs, no buses, no
// latencies) and none of the statistics. The sampling driver drains the
// pipeline first, so Warm never races an in-flight timed fill; it simply
// installs lines the way the timed path eventually would, keeping the
// caches hot across a fast-forwarded gap so the next measured unit does
// not start cold (the cold-start bias SMARTS warming exists to kill).

// warmChain returns the finite levels below this core's L1 (the shared
// chain, this core's private chain, or nothing in the flat model).
func (s *System) warmChain() []*level {
	if s.ic.priv != nil {
		return s.ic.priv[s.coreID]
	}
	return s.ic.levels
}

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
// The paper's machine — a direct-mapped L1 over the flat model, one core
// and so no broadcast to run — warms with one L1 probe
// (cache.TouchDirect): there is no level below to allocate into or write
// a victim back to.
func (s *System) Warm(addr uint64, store bool) {
	l1 := s.l1.tags
	chain := s.warmChain()
	if len(chain) == 0 && s.cfg.L1.Assoc == 1 && s.ic.disjoint {
		l1.TouchDirect(addr, store)
		return
	}
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

// warmInvalidate is the functional twin of invalidateRemote: remote
// copies of the line die (tags only — no bus time, no counters), and a
// dirty remote copy migrates into the top shared level when there is
// one, matching the timed model's write-back-on-invalidate migration.
func (ic *Interconnect) warmInvalidate(from int, line uint64) {
	for c, s := range ic.systems {
		if c == from {
			continue
		}
		if dirty, present := s.l1.tags.Invalidate(line); present && dirty && len(ic.levels) > 0 {
			if !ic.levels[0].tags.Lookup(line) {
				ic.levels[0].tags.Fill(line)
			}
			ic.levels[0].tags.SetDirty(line)
		}
	}
	for c, chain := range ic.priv {
		if c == from {
			continue
		}
		for _, l := range chain {
			l.tags.Invalidate(line)
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
