package core

import (
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/queue"
	"repro/internal/regfile"
	"repro/internal/stats"
)

// issue runs the shared issue stage for one cycle. In decoupled mode each
// unit walks every thread's own stream in order (full simultaneous issue,
// round-robin thread priority); slippage between the AP and EP streams is
// unbounded up to the queue capacities. In non-decoupled mode each thread
// issues strictly in program order across both units — the degenerate
// machine of the paper with the instruction queues disabled.
func (c *Core) issue() {
	c.reasonBuf[isa.AP] = [stats.NumWasteReasons]int32{}
	c.reasonBuf[isa.EP] = [stats.NumWasteReasons]int32{}
	c.reasonTotal[isa.AP] = 0
	c.reasonTotal[isa.EP] = 0
	c.memStallBuf = c.memStallBuf[:0]
	shared := c.cfg.SharedFUs
	if shared <= 0 {
		shared = 1 << 30 // effectively unlimited: private per-unit FUs
	}
	if c.cfg.Decoupled {
		c.issueDecoupled(shared)
	} else {
		c.issueMerged(shared)
	}
}

// issueDecoupled walks the AP streams then the EP streams.
func (c *Core) issueDecoupled(shared int) {
	apSlots, epSlots := c.cfg.APWidth, c.cfg.EPWidth

	if c.cfg.IssuePolicy != config.IssueOldestFirst {
		// Round-robin: walk the rotation directly, no order buffer.
		n := len(c.ctxs)
		t := c.rotStart()
		for k := 0; k < n && apSlots > 0 && shared > 0; k++ {
			apSlots, shared = c.issueStream(c.ctxs[t], isa.AP, apSlots, shared)
			t = c.rotNext(t)
		}
		t = c.rotStart()
		for k := 0; k < n && epSlots > 0 && shared > 0; k++ {
			epSlots, shared = c.issueStream(c.ctxs[t], isa.EP, epSlots, shared)
			t = c.rotNext(t)
		}
	} else {
		for _, t := range c.threadOrder(isa.AP) {
			if apSlots <= 0 || shared <= 0 {
				break
			}
			apSlots, shared = c.issueStream(c.ctxs[t], isa.AP, apSlots, shared)
		}
		for _, t := range c.threadOrder(isa.EP) {
			if epSlots <= 0 || shared <= 0 {
				break
			}
			epSlots, shared = c.issueStream(c.ctxs[t], isa.EP, epSlots, shared)
		}
	}
	c.accountSlots(isa.AP, c.cfg.APWidth, apSlots)
	c.accountSlots(isa.EP, c.cfg.EPWidth, epSlots)
}

// threadOrder returns the thread visit order for one unit's issue walk:
// round-robin rotation (the paper's policy) or oldest-first by the fetch
// time of each thread's stream head (ablation A7).
func (c *Core) threadOrder(unit isa.Unit) []int {
	n := len(c.ctxs)
	order := c.orderBuf[:0]
	t := c.rotStart()
	for k := 0; k < n; k++ {
		order = append(order, t)
		t = c.rotNext(t)
	}
	if c.cfg.IssuePolicy != config.IssueOldestFirst {
		c.orderBuf = order
		return order
	}
	age := func(t int) int64 {
		var q *queue.Ring[*DynInst]
		if unit == isa.AP {
			q = c.ctxs[t].APQ
		} else {
			q = c.ctxs[t].EPQ
		}
		if d, ok := q.Peek(); ok {
			return d.FetchedAt
		}
		return Never // empty stream: lowest priority
	}
	// Stable insertion sort over the rotated order keeps ties fair.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && age(order[j]) < age(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	c.orderBuf = order
	return order
}

// issueStream issues consecutive ready instructions from one thread's
// stream for the given unit, recording the blocking reason when the head
// cannot issue while slots remain.
//
// The per-unit stall cache (Context.issueStall) is the issue stage's
// ready-set: a stream whose head is provably stalled until a known cycle
// — or whose queue is empty — records its cached verdict without
// touching the queue or re-classifying, exactly reproducing what the
// full walk would do (including the head's memory-stall accrual). The
// cache is armed only when the blocking condition has a known expiry
// (the same rule as DynInst.StallUntil) and re-armed by dispatch when a
// push ends an empty-queue verdict.
func (c *Core) issueStream(ctx *Context, unit isa.Unit, slots, shared int) (int, int) {
	st := &ctx.issueStall[unit]
	if c.now < st.until {
		if st.mem != nil {
			st.mem.MemStall++
			c.memStallBuf = append(c.memStallBuf, st.mem)
		}
		c.record(unit, st.reason)
		return slots, shared
	}
	q := ctx.APQ
	if unit == isa.EP {
		q = ctx.EPQ
	}
	for slots > 0 && shared > 0 {
		d, ok := q.Peek()
		if !ok {
			st.until, st.reason, st.mem = Never, stats.WasteIdle, nil
			c.record(unit, stats.WasteIdle)
			return slots, shared
		}
		if c.now < d.StallUntil {
			r := c.stalledVerdict(d)
			c.cacheStreamStall(st, d, r)
			c.record(unit, r)
			return slots, shared
		}
		reason, ready := c.classify(ctx, d)
		if !ready {
			if c.now < d.StallUntil {
				// block() recorded a known delivery time: the verdict —
				// and the head — are fixed until then.
				c.cacheStreamStall(st, d, reason)
			}
			c.record(unit, reason)
			return slots, shared
		}
		q.Drop()
		c.execute(ctx, d)
		slots--
		shared--
		c.col.Slots[unit].Issued++
	}
	return slots, shared
}

// cacheStreamStall arms one stream's stall cache from its blocked head.
func (c *Core) cacheStreamStall(st *issueStall, d *DynInst, r stats.WasteReason) {
	st.until, st.reason = d.StallUntil, r
	if r == stats.WasteMem {
		st.mem = d
	} else {
		st.mem = nil
	}
}

// issueMerged implements the non-decoupled machine: per thread, walk the
// merged program-order stream; stop at the first instruction that cannot
// issue (operands, unit width, or shared FU budget).
func (c *Core) issueMerged(shared int) {
	apSlots, epSlots := c.cfg.APWidth, c.cfg.EPWidth

	for _, t := range c.threadOrder(isa.AP) {
		if (apSlots <= 0 && epSlots <= 0) || shared <= 0 {
			break
		}
		ctx := c.ctxs[t]
	walk:
		for shared > 0 {
			d := mergedHead(ctx)
			if d == nil {
				c.record(isa.AP, stats.WasteIdle)
				c.record(isa.EP, stats.WasteIdle)
				break
			}
			slots := &apSlots
			q := ctx.APQ
			if d.Unit == isa.EP {
				slots = &epSlots
				q = ctx.EPQ
			}
			if *slots == 0 {
				// In-order: a width-stalled head blocks the other unit
				// too. Charge the structural reason to the other unit.
				other := isa.AP
				if d.Unit == isa.AP {
					other = isa.EP
				}
				c.record(other, stats.WasteOther)
				break walk
			}
			if c.now < d.StallUntil {
				reason := c.stalledVerdict(d)
				c.record(isa.AP, reason)
				c.record(isa.EP, reason)
				break walk
			}
			reason, ready := c.classify(ctx, d)
			if !ready {
				// Program order blocks both units on this reason.
				c.record(isa.AP, reason)
				c.record(isa.EP, reason)
				break walk
			}
			q.Drop()
			c.execute(ctx, d)
			*slots--
			shared--
			c.col.Slots[d.Unit].Issued++
		}
	}
	c.accountSlots(isa.AP, c.cfg.APWidth, apSlots)
	c.accountSlots(isa.EP, c.cfg.EPWidth, epSlots)
}

// mergedHead returns the older of the two stream heads (program order).
func mergedHead(ctx *Context) *DynInst {
	a, aok := ctx.APQ.Peek()
	e, eok := ctx.EPQ.Peek()
	switch {
	case aok && eok:
		if a.Seq < e.Seq {
			return a
		}
		return e
	case aok:
		return a
	case eok:
		return e
	default:
		return nil
	}
}

// classify decides whether d can issue now and, if not, why. It also
// maintains d's memory-stall accounting (the perceived-latency numerator).
func (c *Core) classify(ctx *Context, d *DynInst) (stats.WasteReason, bool) {
	// Stores issue on address operands only (Src2); the data operand
	// (Src1) joins at graduation via the SAQ. Everything else needs all
	// sources. The None guard makes the RegReady index known-valid.
	if p := d.PSrc1; p != regfile.None && !d.IsStore() && !ctx.files[d.Src1File].RegReady(p, c.now) {
		return c.block(ctx, d, p, d.Src1File), false
	}
	if p := d.PSrc2; p != regfile.None && !ctx.files[d.Src2File].RegReady(p, c.now) {
		return c.block(ctx, d, p, d.Src2File), false
	}
	return 0, true
}

// stalledVerdict repeats a cached classification: the blocking operand
// cannot arrive before d.StallUntil, so the verdict — and blockOn's
// per-cycle accounting for the unchanged blocker — repeats verbatim.
func (c *Core) stalledVerdict(d *DynInst) stats.WasteReason {
	if d.StallReason == stats.WasteMem {
		d.MemStall++
		c.memStallBuf = append(c.memStallBuf, d)
	}
	return d.StallReason
}

// block classifies a blocked head via blockOn and, when the operand's
// delivery time is already known, caches the verdict until that cycle.
// An unknown delivery time (a load the cache has not accepted) cannot be
// cached: it may resolve to any cycle.
func (c *Core) block(ctx *Context, d *DynInst, p regfile.PhysReg, file isa.Unit) stats.WasteReason {
	reason := c.blockOn(ctx, d, p, file)
	if until := ctx.file(file).ReadyAt(p); until != regfile.NeverReady {
		d.StallUntil = until
		d.StallReason = reason
	}
	return reason
}

// blockOn classifies a not-ready operand and accrues the head's memory
// stall time. Switching blockers flushes the previous blocker's
// perceived-latency sample.
func (c *Core) blockOn(ctx *Context, d *DynInst, p regfile.PhysReg, file isa.Unit) stats.WasteReason {
	if !ctx.files[file].Entry(p).MissedLoad {
		return stats.WasteFU
	}
	if d.BlockPhys != p || d.BlockFile != file {
		c.flushBlockSample(ctx, d)
		d.BlockPhys = p
		d.BlockFile = file
		d.MemStall = 0
	}
	d.MemStall++
	c.memStallBuf = append(c.memStallBuf, d)
	return stats.WasteMem
}

// flushBlockSample records the perceived-latency sample for the missed
// load currently blocking d, if one is pending.
func (c *Core) flushBlockSample(ctx *Context, d *DynInst) {
	if d.BlockPhys == regfile.None {
		return
	}
	m := ctx.files[d.BlockFile].Entry(d.BlockPhys)
	if m.MissedLoad && !m.Sampled {
		m.Sampled = true
		c.addPerceived(d.BlockFile, d.MemStall)
	}
	d.BlockPhys = regfile.None
	d.MemStall = 0
}

// addPerceived records one perceived-latency sample, classified FP or
// integer by the register file the load writes.
func (c *Core) addPerceived(file isa.Unit, cycles int64) {
	if file == isa.EP {
		c.col.PerceivedFP.Add(cycles)
	} else {
		c.col.PerceivedInt.Add(cycles)
	}
}

// execute performs issue-time actions: computes completion times, writes
// register-ready times, starts memory accesses and branch resolution, and
// takes the perceived-latency samples for consumed missed loads.
func (c *Core) execute(ctx *Context, d *DynInst) {
	c.progressed = true
	d.Issued = true

	// Perceived-latency sampling: first consumer of each missed load.
	c.samplePerceived(ctx, d)

	switch d.Op {
	case isa.OpLoad:
		d.AccessAt = c.now + c.cfg.APLatency
		ctx.PendingAccess = append(ctx.PendingAccess, d)
		if d.AccessAt < ctx.nextAccessAt || len(ctx.PendingAccess) == 1 {
			ctx.nextAccessAt = d.AccessAt
		}
		c.cal.schedule(c.now, d.AccessAt)
	case isa.OpStore:
		d.AccessAt = c.now + c.cfg.APLatency
		d.DoneAt = d.AccessAt // address computed; data joins at graduation
		c.cal.schedule(c.now, d.AccessAt)
	case isa.OpBranch:
		d.DoneAt = c.now + c.cfg.APLatency
		if !ctx.issuedBranches.Push(d) {
			panic("core: issued branches exceed the speculation limit")
		}
		if d.DoneAt < ctx.nextBranchResolveAt {
			ctx.nextBranchResolveAt = d.DoneAt
		}
		if d.DoneAt < c.branchResolveAt {
			c.branchResolveAt = d.DoneAt
		}
		c.cal.schedule(c.now, d.DoneAt)
	default:
		lat := c.cfg.APLatency
		if d.Unit == isa.EP {
			lat = c.cfg.EPLatency
		}
		d.DoneAt = c.now + lat
		if d.PDest != regfile.None {
			ctx.file(d.DestFile).SetReadyAt(d.PDest, d.DoneAt)
		}
		c.cal.schedule(c.now, d.DoneAt)
	}
}

// samplePerceived records a zero-or-more-cycle sample for every
// missed-load operand this instruction consumes whose sample is still
// pending. The stall counted is the time *this* instruction spent blocked
// on that operand at the head of its stream — zero when decoupling
// delivered the data before the consumer arrived.
func (c *Core) samplePerceived(ctx *Context, d *DynInst) {
	if !d.IsStore() { // store data is consumed at graduation, not issue
		c.takePerceived(ctx, d, d.PSrc1, d.Src1File)
	}
	c.takePerceived(ctx, d, d.PSrc2, d.Src2File)
}

// takePerceived samples one consumed operand if it is an unsampled
// missed load.
func (c *Core) takePerceived(ctx *Context, d *DynInst, p regfile.PhysReg, file isa.Unit) {
	if p == regfile.None {
		return
	}
	m := ctx.files[file].Entry(p)
	if !m.MissedLoad || m.Sampled {
		return
	}
	m.Sampled = true
	var cycles int64
	if d.BlockPhys == p && d.BlockFile == file {
		cycles = d.MemStall
		d.BlockPhys = regfile.None
		d.MemStall = 0
	}
	c.addPerceived(file, cycles)
}

// record notes one thread's blocking reason for a unit this cycle.
func (c *Core) record(unit isa.Unit, r stats.WasteReason) {
	c.reasonBuf[unit][r]++
	c.reasonTotal[unit]++
}

// accountSlots distributes a unit's wasted slots this cycle across the
// blocked threads' reasons (evenly, one reason per thread), defaulting to
// idle when no thread reported a reason — the Tullsen-style accounting the
// paper's Figure 3 uses.
func (c *Core) accountSlots(unit isa.Unit, width, left int) {
	c.col.Slots[unit].Total += int64(width)
	c.wasteSlots(unit, left, 1)
}

// wasteSlots adds k cycles' worth of a unit's left-over slots to its
// waste buckets. The float share is added once per blocked thread per
// cycle, never pre-multiplied, so each bucket accumulates the exact
// sequence of additions the per-cycle, per-thread walk produces
// (bit-identical floats); a bucket's k×count additions run in one
// register loop.
func (c *Core) wasteSlots(unit isa.Unit, left int, k int64) {
	if left <= 0 {
		return
	}
	w := &c.col.Slots[unit].Wasted
	n := int(c.reasonTotal[unit])
	if n == 0 {
		addRepeated(&w[stats.WasteIdle], float64(left), k)
		return
	}
	share := float64(left) / float64(n)
	for r, cnt := range c.reasonBuf[unit] {
		if cnt > 0 {
			addRepeated(&w[r], share, k*int64(cnt))
		}
	}
}

// addRepeated adds x to *sum n times, rounding after each addition.
func addRepeated(sum *float64, x float64, n int64) {
	v := *sum
	for ; n > 0; n-- {
		v += x
	}
	*sum = v
}
