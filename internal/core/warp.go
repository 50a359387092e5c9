package core

import (
	"math/bits"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// This file implements the machinery behind sampled execution: draining
// the pipeline to a clean architectural boundary, and the functional
// warp that advances trace cursors, branch-predictor state and the cache
// footprint across a sampling gap without simulating any timing.

// DrainMaxCycles bounds a pipeline drain as a deadlock guard; real
// drains finish within queue depths × memory latencies, orders of
// magnitude sooner. A machine whose single miss alone takes this long
// can never drain, and runner.Validate refuses it for sampled mode.
const DrainMaxCycles = 1 << 20

// PipelineEmpty reports whether every context's pipeline state has
// drained: nothing fetched awaiting dispatch, nothing in flight in the
// ROB, no store awaiting commit. (An empty ROB implies the issue queues
// and issued-branch list are empty too — every dispatched instruction
// sits in the ROB until it graduates.)
func (c *Core) PipelineEmpty() bool {
	for _, ctx := range c.ctxs {
		if ctx.fbLen > 0 || ctx.robLen > 0 || ctx.SAQ.Len() > 0 {
			return false
		}
	}
	return true
}

// warpRounds caps the rounds one warp pass takes from each context, so
// a pass's refs fit the per-context scratch without growing it.
const warpRounds = 256

// warpLane is one context as the functional warp sees it: its source,
// the state its instructions touch, and the refs of the current pass.
// The machine keeps one per context across Warp calls, so the warp
// allocates nothing after the first.
type warpLane struct {
	ctx  *Context
	bht  *branch.BHT   // ctx.Pred when it is the paper's BHT (inlinable), else nil
	mem  *mem.System   // the context's core's memory
	l1   *cache.Cache  // mem.DirectWarmL1(): set when a touch is one TouchDirect
	skip trace.Skipper // ctx.Source when it can skip, else nil
	refs trace.Refs    // the pass's refs, indexed by round
	dry  bool          // the source ran dry in this Warp call
}

// take consumes the lane's next k records into its refs, indexed by
// round from 0, and returns how many it consumed: fewer than k only when
// the source has run dry. What is left of the lookahead batch goes
// first. The rest the source skips; a source without Skip goes through
// the adapter, which fills the lookahead batch and converts it.
func (l *warpLane) take(k int) int {
	l.refs.Mem, l.refs.Br = l.refs.Mem[:0], l.refs.Br[:0]
	c := l.ctx
	got := min(c.aheadLen-c.aheadPos, k)
	l.refs.Add(c.ahead[c.aheadPos:c.aheadPos+got], 0)
	c.aheadPos += got
	if l.skip != nil && !c.Exhausted && got < k {
		n := l.skip.Skip(&l.refs, uint32(got), k-got)
		c.Exhausted = n < k-got
		return got + n
	}
	for got < k {
		win := c.window()
		m := min(len(win), k-got)
		if m == 0 {
			break
		}
		l.refs.Add(win[:m], uint32(got))
		c.aheadPos += m
		got += m
	}
	return got
}

// train applies the pass's branches to the context's predictor, in
// order, exactly as fetch would (fetch updates at fetch time, in
// architectural order), so prediction accuracy carries across the gap.
// Predictors are private to their context, so no other lane's refs need
// interleaving.
func (l *warpLane) train() {
	if l.bht != nil {
		for _, b := range l.refs.Br {
			l.bht.Update(b.PC, b.Taken)
		}
		return
	}
	for _, b := range l.refs.Br {
		l.ctx.Pred.Update(b.PC, b.Taken)
	}
}

// touch warms the caches with one of the lane's memory refs.
func (l *warpLane) touch(r trace.MemRef) {
	if l.l1 != nil {
		l.l1.TouchDirect(r.Addr, r.Store)
	} else {
		l.mem.Warm(r.Addr, r.Store)
	}
}

// touchAll warms the caches with all of the lane's memory refs, in order.
func (l *warpLane) touchAll() {
	if c := l.l1; c != nil {
		for _, r := range l.refs.Mem {
			c.TouchDirect(r.Addr, r.Store)
		}
		return
	}
	for _, r := range l.refs.Mem {
		l.mem.Warm(r.Addr, r.Store)
	}
}

// touchMerged warms the caches with the memory refs of a pass of k
// rounds over the live lanes, in round-robin order: by round, then lane
// order. Contexts on one core share its L1, and cores may share levels
// below or invalidate each other's copies, so the order of touches
// across lanes decides which lines survive. Round and lane pack into a
// dense position round<<shift | lane, so the merge is a counting sort:
// every ref lands in its position's slot and its bit in set, and the set
// bits are walked in order. No step waits on the one before, as a
// compare-per-lane merge would.
func touchMerged(live []*warpLane, k int, slots []trace.MemRef, set []uint64) {
	if len(live) == 1 {
		live[0].touchAll()
		return
	}
	shift := bits.Len(uint(len(live) - 1))
	for x, l := range live {
		for _, r := range l.refs.Mem {
			p := int(r.Idx)<<shift | x
			slots[p] = r
			set[p>>6] |= 1 << (p & 63)
		}
	}
	// Contexts of one core over the paper's L1 all touch one cache with
	// one probe.
	direct := live[0].l1
	for _, l := range live[1:] {
		if l.l1 != direct {
			direct = nil
		}
	}
	set = set[:(k<<shift+63)>>6]
	for w, word := range set {
		set[w] = 0
		for ; word != 0; word &= word - 1 {
			p := w<<6 | bits.TrailingZeros64(word)
			if direct != nil {
				direct.TouchDirect(slots[p].Addr, slots[p].Store)
			} else {
				live[p&(1<<shift-1)].touch(slots[p])
			}
		}
	}
}

// warp advances up to n instructions round-robin over lanes — one
// instruction per live lane per round, lanes in order, exhausted lanes
// skipped — and returns how many it consumed. It works in passes: each
// live lane takes the same number of whole rounds as refs, at most
// warpRounds and as many as the budget allows; its branches train its
// predictor, and the memory refs of all lanes touch the caches merged
// into round-robin order. A budget smaller than one round ends with a
// partial round in lane order. Each source is private to its context,
// so reading it ahead in passes cannot change what any lane sees: the
// instructions and their order are those of one-at-a-time round-robin.
func warp(lanes []warpLane, live []*warpLane, slots []trace.MemRef, set []uint64, n int64) int64 {
	var done int64
	for done < n {
		live = live[:0]
		for i := range lanes {
			if !lanes[i].dry {
				live = append(live, &lanes[i])
			}
		}
		if len(live) == 0 {
			break
		}
		k := int(min(warpRounds, (n-done)/int64(len(live))))
		if k == 0 {
			// Budget below a whole round: finish it in lane order.
			for _, l := range live {
				if done == n {
					break
				}
				if l.dry = l.take(1) == 0; !l.dry {
					l.train()
					l.touchAll()
					done++
				}
			}
			continue
		}
		for _, l := range live {
			got := l.take(k)
			l.dry = got < k
			l.train()
			done += int64(got)
		}
		touchMerged(live, k, slots, set)
	}
	return done
}

// DrainPipeline freezes fetch on every core and ticks the lockstep
// machine until every pipeline has emptied and no memory system has a
// miss in flight — the clean boundary the functional warp resumes from —
// then unfreezes fetch. It reports whether the drain completed within
// the cycle guard. The drained cycles are simulated normally and land in
// the current statistics window; the sampling driver resets statistics
// afterwards.
func (p *CMP) DrainPipeline() bool {
	for _, co := range p.cores {
		co.fetchFrozen = true
	}
	limit := p.Now() + DrainMaxCycles
	for !p.drained() && p.Now() < limit {
		p.Tick()
	}
	for _, co := range p.cores {
		co.fetchFrozen = false
	}
	return p.drained()
}

func (p *CMP) drained() bool {
	for _, co := range p.cores {
		if !co.PipelineEmpty() || !co.mem.Quiescent() {
			return false
		}
	}
	return true
}

// Warp advances architectural state by up to n instructions without any
// timing: trace cursors move, branch predictors train, and the memory
// footprint warms the caches functionally. Each round visits every core
// in index order, one instruction per context — mirroring fetch's
// rotation and the deterministic interleaving lockstep ticking gives the
// detailed machine. Simulated time does not advance and no statistics
// change. It returns the number of instructions consumed, which falls
// short of n only when every source runs dry. Call only on a drained
// pipeline (DrainPipeline).
//
// The speculative-DAE extension is a timing model (squash penalties and
// LoD fetch holds) and is deliberately not applied across a warp: the
// warped instructions' speculative prefetches coincide with their own
// functional warming, and the per-context LoD countdown simply does not
// advance. Sampled-mode runs therefore estimate a machine whose gaps
// are speculation-free; exact runs model every event.
func (p *CMP) Warp(n int64) int64 {
	if p.warpLanes == nil {
		for _, co := range p.cores {
			for _, ctx := range co.ctxs {
				p.warpLanes = append(p.warpLanes, warpLane{
					ctx:  ctx,
					mem:  co.mem,
					refs: trace.Refs{Mem: make([]trace.MemRef, 0, warpRounds), Br: make([]trace.BranchRef, 0, warpRounds)},
				})
			}
		}
		p.warpLive = make([]*warpLane, 0, len(p.warpLanes))
		p.warpSlots = make([]trace.MemRef, warpRounds<<bits.Len(uint(len(p.warpLanes)-1)))
		p.warpSet = make([]uint64, (len(p.warpSlots)+63)/64)
	}
	// What each lane warps through can change between calls (a source,
	// a predictor or the disjoint declaration), so it is decided here,
	// once per call.
	for i := range p.warpLanes {
		l := &p.warpLanes[i]
		l.bht, _ = l.ctx.Pred.(*branch.BHT)
		l.skip, _ = l.ctx.Source.(trace.Skipper)
		l.l1 = l.mem.DirectWarmL1()
		l.dry = false
	}
	return warp(p.warpLanes, p.warpLive, p.warpSlots, p.warpSet, n)
}
