// Package core implements the paper's primary contribution: a cycle-level
// model of a simultaneous-multithreaded, access/execute-decoupled
// processor.
//
// Each hardware context runs in decoupled mode: at dispatch, instructions
// are steered by data type to the Address Processor (integer, memory and
// branch instructions) or the Execute Processor (floating-point), each of
// which issues **in order within each thread's stream**. The per-thread
// Instruction Queue between dispatch and the EP lets the AP slip ahead,
// issuing loads long before the EP consumes their values — the decoupling
// that hides memory latency. All threads share the issue slots (full
// simultaneous issue with round-robin priority), the functional units and
// the caches; fetch picks the two threads with the fewest instructions
// pending dispatch (ICOUNT).
//
// The "non-decoupled" comparison machine of the paper (instruction queues
// disabled) is the same hardware with slippage suppressed: each thread
// issues in program order across *both* units, like a conventional
// in-order superscalar with separate integer/FP pipelines.
//
// The model is trace driven and simulates the correct path only: on a
// branch misprediction the thread's fetch freezes until the branch
// resolves in the AP (plus a one-cycle redirect), and the lost slots are
// accounted in the same "wrong-path or idle" bucket the paper uses.
package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/regfile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Core is the shared machine: issue logic, functional units, memory
// subsystem, plus one Context per hardware thread.
type Core struct {
	cfg  config.Machine
	mem  *mem.System
	ctxs []*Context

	now int64
	// rotate gives round-robin priority for issue, dispatch and cache
	// access across threads; it advances every cycle and is kept in
	// [0, threads) so the stage walks never divide.
	rotate int

	// cal is the event calendar: every future cycle at which machine
	// state can change on its own is inserted the moment its time
	// becomes known (loads accepted, branches issued, registers
	// written, redirects), and CMP.Step's fast-forward reads the earliest
	// pending event with one O(1) peek.
	cal calendar
	// branchResolveAt is the earliest issued-branch resolution time
	// across all contexts (a lower bound; per-context exact times live
	// in Context.nextBranchResolveAt). resolveBranches skips the whole
	// stage until it is due.
	branchResolveAt int64

	col stats.Collector

	// skippedCycles counts cycles fast-forwarded over rather than ticked
	// (the fast-forward tests read it; they are fully accounted in the
	// collector).
	skippedCycles int64
	// progressed reports whether the last Tick changed machine state
	// beyond the constant per-cycle stall accounting. A cycle without
	// progress is provably identical to every following cycle up to the
	// next scheduled event, which is what lets CMP.Step fast-forward.
	progressed bool
	// fetchFrozen suspends the fetch stage while DrainPipeline empties
	// the machine to the architectural boundary a functional warp
	// resumes from. Never set during exact execution.
	fetchFrozen bool
	// dispatchStallDelta, conflictStallDelta and lodStallDelta are the
	// last Tick's increments of the corresponding collector counters,
	// replayed per skipped cycle by fastForward.
	dispatchStallDelta int64
	conflictStallDelta int64
	lodStallDelta      int64

	// spec is the resolved speculative-DAE configuration (see spec.go);
	// the zero value disables every hook.
	spec spec

	// reasonBuf counts this cycle's blocked-stream verdicts per unit and
	// reason; reasonTotal is the per-unit count of blocked streams. Both
	// are rebuilt by issue each ticked cycle and replayed verbatim per
	// skipped cycle by fastForward.
	reasonBuf   [isa.NumUnits][stats.NumWasteReasons]int32
	reasonTotal [isa.NumUnits]int32
	// memStallBuf lists the stream heads whose MemStall counter advanced
	// this cycle (rebuilt alongside reasonBuf, replayed by fastForward).
	memStallBuf []*DynInst
	fetchPick   []int
	fetchLens   []int
	orderBuf    []int
}

// newCore wires a core around its slot of a CMP interconnect. m must
// already be effective and validated.
func newCore(m config.Machine, sources []trace.Reader, ms *mem.System) (*Core, error) {
	if len(sources) != m.Threads {
		return nil, fmt.Errorf("core: %d sources for %d threads", len(sources), m.Threads)
	}
	c := &Core{cfg: m, mem: ms, branchResolveAt: Never, spec: newSpec(m.Spec)}
	for i := 0; i < m.Threads; i++ {
		ctx, err := newContext(i, m, sources[i])
		if err != nil {
			return nil, err
		}
		c.ctxs = append(c.ctxs, ctx)
	}
	c.fetchPick = make([]int, 0, m.Threads)
	c.fetchLens = make([]int, m.Threads)
	c.orderBuf = make([]int, 0, m.Threads)
	return c, nil
}

// Collector returns the statistics collector (mutable; reset between
// warm-up and measurement).
func (c *Core) Collector() *stats.Collector { return &c.col }

// Done reports whether every thread has exhausted its source and drained
// its pipeline.
func (c *Core) Done() bool {
	for _, ctx := range c.ctxs {
		if !ctx.Exhausted || ctx.robLen > 0 || ctx.fbLen > 0 {
			return false
		}
	}
	return true
}

// Tick advances the machine by one cycle. Stages run back to front so a
// value produced in cycle N is consumable in cycle N+latency and a fetched
// instruction dispatches no earlier than the following cycle.
func (c *Core) Tick() {
	c.now++
	c.col.Cycles++
	c.progressed = false
	dispatchStalls := c.col.DispatchStalls
	conflictStalls := c.col.LoadConflictStalls
	lodStalls := c.col.LoDStalls
	if c.mem.BeginCycle(c.now) > 0 {
		c.progressed = true
	}
	c.resolveBranches()
	c.graduate()
	c.cacheAccess()
	c.issue()
	c.dispatch()
	c.fetch()
	c.rotate = c.rotNext(c.rotate)
	c.dispatchStallDelta = c.col.DispatchStalls - dispatchStalls
	c.conflictStallDelta = c.col.LoadConflictStalls - conflictStalls
	c.lodStallDelta = c.col.LoDStalls - lodStalls
}

// ----------------------------------------------------------------------------
// Fast-forward.

// nextEventAt returns the earliest cycle strictly after now at which the
// machine's state can change: a peek at the event calendar, into which
// every subsystem inserted its delivery times as they became known.
// Never when nothing is scheduled (the machine is deadlocked or
// drained).
func (c *Core) nextEventAt() int64 {
	return c.cal.nextAfter(c.now)
}

// fastForward bulk-accounts k cycles identical to the one just simulated.
// Only the constant per-cycle deltas of a no-progress cycle exist: the
// cycle counter, each unit's offered and wasted issue slots, the blocked
// heads' memory-stall counters, and the dispatch/load-conflict stall
// counters. The float additions are repeated rather than multiplied so the
// waste buckets stay bit-identical to stepping.
func (c *Core) fastForward(k int64) {
	c.skippedCycles += k
	for i := int64(0); i < k; i++ {
		c.col.Cycles++
		// On a no-progress cycle nothing issued, so every slot was left
		// over: accountSlots with left == width repeats the recorded
		// cycle's accounting exactly (reasonBuf still holds its reasons).
		c.accountSlots(isa.AP, c.cfg.APWidth, c.cfg.APWidth)
		c.accountSlots(isa.EP, c.cfg.EPWidth, c.cfg.EPWidth)
	}
	for _, d := range c.memStallBuf {
		d.MemStall += k
	}
	c.col.DispatchStalls += k * c.dispatchStallDelta
	c.col.LoadConflictStalls += k * c.conflictStallDelta
	c.col.LoDStalls += k * c.lodStallDelta
	c.rotate = (c.rotate + int(k%int64(len(c.ctxs)))) % len(c.ctxs)
	c.now += k
}

// rotStart returns this cycle's round-robin starting thread, and rotNext
// the following index (modulo-free wrap; rotate is maintained in range).
// Every rotated stage walk uses this pair so the rotation policy lives
// in one place.
func (c *Core) rotStart() int { return c.rotate }

func (c *Core) rotNext(t int) int {
	if t++; t == len(c.ctxs) {
		return 0
	}
	return t
}

// ----------------------------------------------------------------------------
// Branch resolution.

// resolveBranches retires issued branches whose AP latency has elapsed:
// releases the speculation slot and un-freezes fetch after a
// misprediction (one-cycle redirect). Predictor state is trained at fetch
// (see fetchThread): in a correct-path-only trace-driven model the fetch
// stream is the architectural branch stream, so in-order training there
// keeps history-based predictors (gshare) consistent; resolution here
// only drives the pipeline timing.
func (c *Core) resolveBranches() {
	// Active-set gate: branchResolveAt is the minimum of the per-context
	// resolution times (maintained at branch issue, recomputed below);
	// until it is due, no context has a due branch and the whole stage —
	// which has no per-cycle side effects when nothing retires — is
	// skipped.
	if c.now < c.branchResolveAt {
		return
	}
	min := Never
	for _, ctx := range c.ctxs {
		if c.now < ctx.nextBranchResolveAt {
			if ctx.nextBranchResolveAt < min {
				min = ctx.nextBranchResolveAt
			}
			continue // earliest issued branch is not due yet
		}
		// Branches issue in program order with a fixed latency, so
		// DoneAt is monotone along the queue: retire strictly from the
		// head, and the new head's DoneAt is the exact next bound.
		next := Never
		for {
			b, ok := ctx.issuedBranches.Peek()
			if !ok {
				break
			}
			if b.DoneAt > c.now {
				next = b.DoneAt
				break
			}
			ctx.issuedBranches.Drop()
			ctx.Unresolved--
			c.col.Branches++
			c.progressed = true
			if b.Mispredicted {
				c.col.Mispredicts++
				if ctx.FetchBlocked == b {
					// One-cycle redirect penalty. No calendar entry is
					// needed: retiring the branch set progressed, which
					// forbids skipping this cycle, and Step's next Tick
					// covers now+1 unconditionally.
					ctx.FetchBlocked = nil
					ctx.FetchResumeAt = c.now + 1
				}
			}
		}
		ctx.nextBranchResolveAt = next
		if next < min {
			min = next
		}
	}
	c.branchResolveAt = min
}

// ----------------------------------------------------------------------------
// Graduation.

// graduate retires completed instructions from each ROB head in program
// order. Stores graduate by writing to the cache (write-back,
// write-allocate); a store blocked on its data operand or on a cache
// structural hazard stalls its thread's graduation, which is what bounds
// the AP's run-ahead when the EP falls far behind.
func (c *Core) graduate() {
	t := c.rotStart()
	for k := 0; k < len(c.ctxs); k++ {
		ctx := c.ctxs[t]
		t = c.rotNext(t)
		// Active-set gate: gradNextAt is the earliest cycle this thread's
		// ROB head can possibly graduate, recorded below whenever the
		// blocking condition has a known delivery time. Skipping until
		// then is exact because the skipped walk would have returned at
		// the same check with no side effects.
		if c.now < ctx.gradNextAt {
			continue
		}
		budget := c.cfg.GraduateWidth
		var next int64
		for budget > 0 {
			d := ctx.robHead()
			if d == nil {
				next = Never // re-armed by the next ROB push (tryDispatch)
				break
			}
			if d.IsStore() {
				committed, retryAt := c.tryCommitStore(ctx, d)
				if !committed {
					next = retryAt
					break
				}
			} else if d.DoneAt > c.now {
				if d.DoneAt != Never {
					next = d.DoneAt // completion time known and final
				}
				break
			}
			ctx.graduateHead()
			c.progressed = true
			if d.Dest.Valid() {
				ctx.file(d.DestFile).Free(d.POld)
			}
			c.col.Graduated++
			c.col.GraduatedByOp[d.Op]++
			budget--
		}
		ctx.gradNextAt = next
	}
}

// tryCommitStore attempts to write the store at the ROB head into the
// cache. When it cannot commit — address not yet computed, data operand
// not ready, or the cache rejected it this cycle — it also returns the
// earliest cycle the attempt could succeed (0 when unknown, meaning
// retry every cycle).
func (c *Core) tryCommitStore(ctx *Context, d *DynInst) (bool, int64) {
	if !d.Issued {
		return false, 0 // address computation not even started
	}
	if c.now < d.AccessAt {
		return false, d.AccessAt // address not computed yet
	}
	if p := d.PSrc1; p != regfile.None {
		if ra := ctx.file(d.Src1File).ReadyAt(p); ra > c.now {
			if ra == regfile.NeverReady {
				return false, 0 // store data delivery not known yet
			}
			return false, ra // store data not produced yet
		}
	}
	// The probe mutates memory-system counters even when rejected, so a
	// cycle that reaches it is never skippable.
	c.progressed = true
	res := c.mem.StoreCommit(d.Addr)
	if !res.OK {
		return false, 0 // port or MSHR pressure: retry next cycle
	}
	if res.Miss {
		// The fill is a future event: it frees an MSHR (and installs the
		// line), which can unblock MSHR-rejected accesses.
		c.cal.schedule(c.now, res.ReadyAt)
	}
	// The SAQ is FIFO in program order and stores graduate in program
	// order, so the head must be this store.
	head, ok := ctx.SAQ.Pop()
	if !ok || head != d {
		panic("core: SAQ out of sync with ROB")
	}
	return true, 0
}

// ----------------------------------------------------------------------------
// Cache access for loads.

// cacheAccess sends issued loads to the data cache in age order per
// thread, with round-robin priority across threads. A load first checks
// the SAQ for an older store to an overlapping address: with forwarding
// enabled it takes the store's data once ready; otherwise it waits until
// the store has committed (the paper's SAQ only lets loads bypass
// *non-conflicting* stores).
func (c *Core) cacheAccess() {
	t := c.rotStart()
	for k := 0; k < len(c.ctxs); k++ {
		ctx := c.ctxs[t]
		t = c.rotNext(t)
		// Active-set gate: nextAccessAt is the earliest AccessAt among the
		// pending loads (or now+1 when one is blocked on a structural or
		// conflict hazard and must retry). Until it is due, the walk would
		// only rebuild the same list with no side effects.
		if len(ctx.PendingAccess) == 0 || c.now < ctx.nextAccessAt {
			continue
		}
		keep := ctx.PendingAccess[:0]
		blocked := false // once one access is rejected, keep age order
		next := Never
		for _, d := range ctx.PendingAccess {
			if blocked || d.AccessAt > c.now {
				keep = append(keep, d)
				if d.AccessAt < next {
					next = d.AccessAt
				}
				continue
			}
			switch c.tryLoad(ctx, d) {
			case loadDone:
				// dropped from pending
			case loadRetry:
				keep = append(keep, d)
				blocked = true
			}
		}
		ctx.PendingAccess = keep
		if blocked {
			next = c.now + 1
		}
		ctx.nextAccessAt = next
	}
}

type loadOutcome uint8

const (
	loadDone loadOutcome = iota
	loadRetry
	// loadProbe is internal to tryLoad: no SAQ decision was reached and
	// the load proceeds to the cache probe.
	loadProbe
)

// tryLoad attempts one load's cache access.
func (c *Core) tryLoad(ctx *Context, d *DynInst) loadOutcome {
	// Older conflicting store in the SAQ? (All older stores have computed
	// their addresses: the AP issues in order, so any store still awaiting
	// its address is younger than d.)
	outcome := loadProbe
	ctx.SAQ.Scan(func(st *DynInst) bool {
		if st.Seq >= d.Seq {
			return false // SAQ is in program order; the rest are younger
		}
		if !st.Issued || c.now < st.AccessAt {
			return true // address not known yet; store is younger in AP order anyway
		}
		if !overlaps(d, st) {
			return true
		}
		if c.cfg.StoreForwarding && ctx.file(st.Src1File).Ready(st.PSrc1, c.now) {
			// Forward the store data to the load.
			c.completeLoad(ctx, d, c.now+1, false)
			c.col.StoreForwards++
			outcome = loadDone
			return false
		}
		c.col.LoadConflictStalls++
		outcome = loadRetry
		return false
	})
	if outcome != loadProbe {
		return outcome
	}
	// The probe mutates memory-system counters even when rejected, so a
	// cycle that reaches it is never skippable.
	c.progressed = true
	res := c.mem.Load(d.Addr)
	if !res.OK {
		if res.Stall == mem.StallMSHR || res.Stall == mem.StallLowerMSHR {
			// The load is queued behind a full MSHR file (at L1 or at a
			// shared level below): it will almost certainly miss. Mark
			// its destination now so consumers blocked on it are
			// classified (and sampled) as memory stalls rather than FU
			// stalls.
			if e := ctx.files[d.DestFile].Entry(d.PDest); !e.MissedLoad {
				e.MissedLoad = true
				e.Sampled = false
			}
		}
		return loadRetry
	}
	c.completeLoad(ctx, d, res.ReadyAt, res.Miss)
	return loadDone
}

// completeLoad records a load's data delivery time and, for misses, the
// per-register metadata driving stall classification and the
// perceived-latency samples.
func (c *Core) completeLoad(ctx *Context, d *DynInst, readyAt int64, miss bool) {
	c.progressed = true
	d.DoneAt = readyAt
	ctx.file(d.DestFile).SetReadyAt(d.PDest, readyAt)
	// The delivery is an event: consumers blocked on the register can
	// issue, and the load itself can graduate, at readyAt (for a primary
	// miss this is also the fill that frees the MSHR).
	c.cal.schedule(c.now, readyAt)
	if miss {
		// Preserve the Sampled flag: a consumer may already have flushed
		// its sample while the access was queued on a full MSHR file.
		ctx.files[d.DestFile].Entry(d.PDest).MissedLoad = true
	}
}

// overlaps reports whether a load and a store touch overlapping bytes.
func overlaps(ld, st *DynInst) bool {
	ls, le := ld.Addr, ld.Addr+uint64(ld.Size)
	ss, se := st.Addr, st.Addr+uint64(st.Size)
	return ls < se && ss < le
}

// ----------------------------------------------------------------------------
// Dispatch.

// dispatch renames and steers instructions from the fetch buffers into
// the issue queues, round-robin across threads, up to DispatchWidth per
// cycle, stopping a thread at its first unavailable resource (in-order
// dispatch with back-pressure).
func (c *Core) dispatch() {
	budget := c.cfg.DispatchWidth
	t := c.rotStart()
	for k := 0; k < len(c.ctxs) && budget > 0; k++ {
		ctx := c.ctxs[t]
		t = c.rotNext(t)
		for budget > 0 {
			d := ctx.fetchHead()
			if d == nil {
				break
			}
			if !c.tryDispatch(ctx, d) {
				c.col.DispatchStalls++
				break
			}
			c.progressed = true
			budget--
		}
	}
}

// tryDispatch allocates every resource the instruction needs; on any
// shortage it leaves the machine untouched and reports failure.
func (c *Core) tryDispatch(ctx *Context, d *DynInst) bool {
	if ctx.robLen == ctx.robCap {
		return false
	}
	var q = ctx.APQ
	if d.Unit == isa.EP {
		q = ctx.EPQ
	}
	if q.Full() {
		return false
	}
	if d.IsStore() && ctx.SAQ.Full() {
		return false
	}
	destFile := d.DestFile
	if d.Dest.Valid() && ctx.file(destFile).FreeCount() == 0 {
		return false
	}
	// All resources available: rename. (The source-file classification
	// already happened at fetch, fused with steering.)
	if d.Src1.Valid() {
		d.PSrc1 = ctx.Map.Get(d.Src1)
	}
	if d.Src2.Valid() {
		d.PSrc2 = ctx.Map.Get(d.Src2)
	}
	if d.Dest.Valid() {
		p, ok := ctx.file(destFile).Alloc()
		if !ok {
			panic("core: register file exhausted after FreeCount check")
		}
		d.PDest = p
		d.POld = ctx.Map.Set(d.Dest, p)
	}
	ctx.dispatchHead()
	if ctx.robLen == 1 {
		ctx.gradNextAt = 0 // an empty ROB parked graduation; re-arm it
	}
	q.Push(d)
	if st := &ctx.issueStall[d.Unit]; st.until == Never {
		st.until = 0 // the stream was cached empty-idle; re-arm it
	}
	if d.IsStore() {
		ctx.SAQ.Push(d)
	}
	return true
}

// ----------------------------------------------------------------------------
// Fetch.

// fetch brings instructions from the per-thread sources into the fetch
// buffers: up to FetchThreads threads per cycle (chosen by ICOUNT or
// round-robin), up to FetchWidth consecutive instructions each, stopping
// at a predicted-taken branch, a full buffer, the control-speculation
// limit, or a misprediction (which freezes the thread until resolution).
func (c *Core) fetch() {
	if c.fetchFrozen {
		return
	}
	c.fetchPick = c.fetchPick[:0]
	rot := c.rotStart()
	for k := 0; k < len(c.ctxs); k++ {
		t := rot
		rot = c.rotNext(rot)
		ctx := c.ctxs[t]
		if ctx.FetchBlocked != nil || c.now < ctx.FetchResumeAt || ctx.fbLen == ctx.fbCap {
			continue
		}
		if _, ok := ctx.peekSource(); !ok {
			continue
		}
		if ctx.lodPending {
			// Loss of decoupling: an execute-slice value feeds the next
			// address computation, so fetch holds until this context's
			// execute queue has drained. The blocked cycles are the LoD
			// stall metric; the condition is constant across a
			// no-progress stretch, so fastForward replays the counter via
			// lodStallDelta. (EPQ drain only ever happens on a ticked
			// cycle — issue sets progressed — so the gate re-evaluates
			// exactly when it can change.)
			if ctx.EPQ.Len() > 0 {
				c.col.LoDStalls++
				continue
			}
			ctx.lodPending = false
		}
		c.fetchPick = append(c.fetchPick, t)
	}
	if c.cfg.FetchPolicy != config.FetchRoundRobin {
		// ICOUNT: fewest instructions pending dispatch first. Stable
		// insertion sort over the rotated order keeps ties round-robin;
		// the buffer lengths are read once, not per comparison.
		p := c.fetchPick
		lens := c.fetchLens[:len(p)]
		for i, t := range p {
			lens[i] = c.ctxs[t].fbLen
		}
		for i := 1; i < len(p); i++ {
			for j := i; j > 0 && lens[j] < lens[j-1]; j-- {
				p[j], p[j-1] = p[j-1], p[j]
				lens[j], lens[j-1] = lens[j-1], lens[j]
			}
		}
	}
	n := c.cfg.FetchThreads
	if n > len(c.fetchPick) {
		n = len(c.fetchPick)
	}
	for _, t := range c.fetchPick[:n] {
		c.fetchThread(c.ctxs[t])
	}
	// Fetch is the one rotation-sensitive stage: an eligible thread left
	// unpicked this cycle (FetchThreads limit) whose head is actually
	// fetchable will be picked within the next few rotations, so the
	// following cycles are not identical to this one even if nothing else
	// happens — forbid skipping. A thread whose head is a branch at the
	// speculation limit stays unfetchable until a resolution event and
	// does not block fast-forwarding.
	for _, t := range c.fetchPick[n:] {
		ctx := c.ctxs[t]
		if in, ok := ctx.peekSource(); ok &&
			!(in.IsBranch() && ctx.Unresolved >= c.cfg.MaxUnresolvedBranches) {
			c.progressed = true
			return
		}
	}
}

// fetchThread fetches up to FetchWidth instructions for one thread.
func (c *Core) fetchThread(ctx *Context) {
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if ctx.fbLen == ctx.fbCap {
			return
		}
		in, ok := ctx.peekSource()
		if !ok {
			return
		}
		if in.IsBranch() && ctx.Unresolved >= c.cfg.MaxUnresolvedBranches {
			return // speculation limit: leave the branch for later
		}
		d := ctx.fetchSlot()
		d.Inst = *in
		ctx.consumeSource()
		d.FetchedAt = c.now
		d.Seq = ctx.NextSeq
		ctx.NextSeq++
		// Classify once at fetch, all from the shared tables: executing
		// unit, destination file, and both source files (RegUnit maps
		// NoReg to AP, which is never consulted — PSrc stays None).
		d.Unit = isa.Steer(&d.Inst)
		d.DestFile = isa.DestUnit(&d.Inst)
		d.Src1File = isa.RegUnit(d.Inst.Src1)
		d.Src2File = isa.RegUnit(d.Inst.Src2)
		c.progressed = true
		c.col.FetchedInsts++

		// Speculative-DAE hooks: the LoD countdown charges every fetched
		// instruction and, once armed, stops this thread's fetch after
		// the branch below is still accounted; a misspeculated hoisted
		// load squashes the stream outright.
		lod := c.spec.enabled && c.specFetched(ctx)
		if c.spec.enabled && d.IsLoad() && c.specFetchLoad(ctx, d) {
			return
		}

		if d.IsBranch() {
			ctx.Unresolved++
			predicted := ctx.Pred.Predict(d.PC)
			ctx.Pred.Update(d.PC, d.Taken)
			if predicted != d.Taken {
				d.Mispredicted = true
				ctx.FetchBlocked = d
				return // wrong path from here: freeze until resolution
			}
			if d.Taken {
				return // fetch stops at a (correctly) predicted-taken branch
			}
		}
		if lod {
			return // loss of decoupling: hold fetch until the EPQ drains
		}
	}
}
