package core

// The speculative-DAE extension (config.Speculation): the access slice
// hoists a fraction of its loads past may-alias and control dependences.
// A hoisted load's line is prefetched functionally at fetch time — the
// run-ahead benefit — and with probability MisspecProb the hoist was
// wrong: the thread's fetch stream squashes and refetches after
// squashCycles. Independently, every lodEvery fetched instructions a
// context hits a loss-of-decoupling event — a value produced in the
// execute slice feeds an address computation — and fetch must hold
// until the context's execute queue drains, collapsing the AP/EP slip.
//
// Both draws come from splitmix64-style hashes of (PC, sequence number,
// context ID): no RNG state, so results are bit-identical across
// execution modes, runs and GOMAXPROCS settings.

import "repro/internal/config"

// Salts separating the two independent draws made per speculative load.
const (
	saltClassify = 0x9E3779B97F4A7C15 // is this load hoisted speculatively?
	saltMisspec  = 0xD1B54A32D192ED03 // did the hoist misspeculate?
)

// spec is the core's cached, resolved view of config.Speculation.
type spec struct {
	enabled       bool
	specThresh    uint64 // SpecLoadFrac scaled to the uint64 hash range
	misspecThresh uint64 // MisspecProb scaled likewise
	squashCycles  int64
	lodEvery      int64
}

// newSpec resolves the configuration (nil = all-off zero value).
func newSpec(s *config.Speculation) spec {
	if s == nil {
		return spec{}
	}
	sq := s.SquashCycles
	if sq == 0 {
		sq = config.DefaultSquashCycles
	}
	return spec{
		enabled:       true,
		specThresh:    fracThresh(s.SpecLoadFrac),
		misspecThresh: fracThresh(s.MisspecProb),
		squashCycles:  sq,
		lodEvery:      s.LoDEvery,
	}
}

// fracThresh maps a probability in [0,1] onto the uint64 hash range, so
// "hash < threshold" fires with that probability over uniform hashes.
// An exact 1.0 is shaved by 2⁻⁶⁴ (the maps-to-everything threshold does
// not exist); no figure sweeps anywhere near it.
func fracThresh(f float64) uint64 {
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return ^uint64(0)
	}
	// Two power-of-two scalings: exact, and the product stays below 2⁶⁴.
	// The conversion keeps the compiler from fusing the first product
	// into the doubling (x*2 becomes x+x) as a multiply-add.
	return uint64(float64(f*float64(1<<63)) * 2)
}

// specHash mixes one load's identity into a uniform draw (splitmix64
// finalizer over the salted identity).
func specHash(pc uint64, seq int64, tid int, salt uint64) uint64 {
	x := pc ^ uint64(seq)*0x9E3779B97F4A7C15 ^ uint64(tid)<<48 ^ salt
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// specFetchLoad applies the speculative-load model to a just-fetched
// load: classify it, prefetch its line functionally when hoisted, and
// draw the misspeculation verdict. It returns true when the load
// squashed the thread (caller stops fetching it this cycle).
func (c *Core) specFetchLoad(ctx *Context, d *DynInst) bool {
	if specHash(d.PC, d.Seq, ctx.ID, saltClassify) >= c.spec.specThresh {
		return false
	}
	c.col.SpeculativeLoads++
	// The hoisted access runs far enough ahead to have its line resident
	// by the time the timed access probes: warm it functionally (tags
	// and LRU only, no ports/MSHRs/latency — the same path the sampling
	// warp uses).
	c.mem.Warm(d.Addr, false)
	if specHash(d.PC, d.Seq, ctx.ID, saltMisspec) >= c.spec.misspecThresh {
		return false
	}
	// Misspeculation: everything fetched past the load is wrong and
	// refetches. In a correct-path trace model the penalty is a fetch
	// freeze; the calendar entry keeps fast-forwarding exact across it.
	c.col.Squashes++
	ctx.FetchResumeAt = c.now + c.spec.squashCycles
	c.cal.schedule(c.now, ctx.FetchResumeAt)
	return true
}

// specFetched advances the loss-of-decoupling countdown for one fetched
// instruction, arming the fetch gate when the period elapses.
func (c *Core) specFetched(ctx *Context) bool {
	if c.spec.lodEvery <= 0 {
		return false
	}
	if ctx.sinceLoD++; ctx.sinceLoD < c.spec.lodEvery {
		return false
	}
	ctx.sinceLoD = 0
	ctx.lodPending = true
	return true
}
