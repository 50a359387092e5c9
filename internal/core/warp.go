package core

import (
	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
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

// warpLane is one context as the functional warp sees it: its current
// source window and the state its instructions touch. bht is the
// context's predictor when it is the paper's BHT, trained directly
// (inlinable) instead of through branch.Predictor.
type warpLane struct {
	ctx *Context
	bht *branch.BHT // ctx.Pred when it is a BHT, else nil
	mem *mem.System
	win []isa.Inst
}

// replay applies the first k records of every live lane's window, round
// by round in lane order. A branch trains the predictor exactly as fetch
// would (fetch updates at fetch time, in architectural order), so
// prediction accuracy carries across the gap; a memory reference warms
// the caches.
func replay(live []*warpLane, k int) {
	for j := 0; j < k; j++ {
		for _, l := range live {
			in := &l.win[j]
			switch in.Op {
			case isa.OpBranch:
				if l.bht != nil {
					l.bht.Update(in.PC, in.Taken)
				} else {
					l.ctx.Pred.Update(in.PC, in.Taken)
				}
			case isa.OpLoad, isa.OpStore:
				l.mem.Warm(in.Addr, in.Op == isa.OpStore)
			}
		}
	}
}

// warp advances up to n instructions round-robin over lanes — one
// instruction per live lane per round, lanes in order, exhausted lanes
// skipped — and returns how many it consumed. It works in windows: each
// pass takes the records every live lane has ready, replays as many
// whole rounds as the shortest window and the budget allow with no
// source call per instruction, then consumes them from every lane at
// once. A budget smaller than one round ends with a partial round in
// lane order. Each source is private to its context, so reading it
// ahead in windows cannot change what any lane sees: the instructions
// and their order are those of one-at-a-time round-robin.
func warp(lanes []warpLane, n int64) int64 {
	live := make([]*warpLane, 0, len(lanes))
	var done int64
	for done < n {
		live = live[:0]
		k := lookahead
		for i := range lanes {
			l := &lanes[i]
			if l.win = l.ctx.window(); len(l.win) > 0 {
				live = append(live, l)
				k = min(k, len(l.win))
			}
		}
		if len(live) == 0 {
			break
		}
		if rounds := (n - done) / int64(len(live)); rounds < int64(k) {
			k = int(rounds)
		}
		if k == 0 {
			// Budget below a whole round: finish it in lane order.
			live = live[:n-done]
			k = 1
		}
		replay(live, k)
		for _, l := range live {
			l.ctx.advance(k)
		}
		done += int64(k) * int64(len(live))
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
	var lanes []warpLane
	for _, co := range p.cores {
		for _, ctx := range co.ctxs {
			bht, _ := ctx.Pred.(*branch.BHT)
			lanes = append(lanes, warpLane{ctx: ctx, bht: bht, mem: co.mem})
		}
	}
	return warp(lanes, n)
}
