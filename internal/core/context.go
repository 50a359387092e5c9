package core

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/queue"
	"repro/internal/regfile"
	"repro/internal/rename"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Context is one hardware thread context. The paper replicates fetch and
// dispatch state, register map tables, register files and all queues per
// context; the issue logic, functional units and caches are shared (and
// live in Core).
type Context struct {
	// ID is the thread index.
	ID int
	// Source is the thread's instruction stream.
	Source trace.Reader
	// Exhausted marks that Source has run dry; the thread idles.
	Exhausted bool

	// peeker is Source's zero-copy lookahead interface when it has one
	// (interned workload streams); other sources go through the
	// lookahead batch below.
	peeker trace.Peeker
	// filler is Source's bulk-read interface when it has one (live
	// workload generators).
	filler trace.Filler
	// ahead[aheadPos:aheadLen] is the lookahead batch over a non-Peeker
	// Source: fetch must inspect the next instruction before consuming it
	// (to stop *before* a branch that would exceed the control-speculation
	// limit). A Filler refills the whole batch in one call; a plain
	// Reader refills one record per Next, so it is never read more than
	// one record ahead. Reading ahead is invisible to the machine: the
	// context owns its source exclusively.
	ahead              [lookahead]isa.Inst
	aheadPos, aheadLen int

	// FetchBuf holds fetched instructions awaiting dispatch. Its length
	// is the ICOUNT fetch-policy metric.
	FetchBuf *queue.Ring[*DynInst]
	// APQ and EPQ are the per-unit in-order issue queues. EPQ is the
	// paper's Instruction Queue — the decoupling slippage window.
	APQ, EPQ *queue.Ring[*DynInst]
	// ROB is the reorder buffer (program order, graduation from the head).
	ROB *queue.Ring[*DynInst]
	// SAQ is the store address queue: stores from dispatch until their
	// data is written to the cache. Loads check it for older conflicting
	// stores.
	SAQ *queue.Ring[*DynInst]

	// APFile and EPFile are the physical register files.
	APFile, EPFile *regfile.File
	// Map is the architectural→physical register map table.
	Map *rename.Table
	// Pred is the thread's private branch predictor.
	Pred branch.Predictor

	// NextSeq numbers dynamic instructions in program order.
	NextSeq int64
	// Unresolved counts in-flight (fetched, unresolved) branches; fetch
	// stalls at the speculation limit.
	Unresolved int
	// issuedBranches holds issued branches awaiting resolution. Branches
	// issue in program order with a fixed latency, so their DoneAt times
	// are monotone and the queue resolves strictly from the head — no
	// scan, no reordering.
	issuedBranches *queue.Ring[*DynInst]
	// nextBranchResolveAt is the head of issuedBranches' DoneAt (Never
	// when empty): resolveBranches skips the context until that cycle,
	// and fast-forward uses it as the branch event bound. Maintained at
	// branch issue and after every resolution pass.
	nextBranchResolveAt int64
	// FetchBlocked is the mispredicted branch currently freezing fetch.
	FetchBlocked *DynInst
	// FetchResumeAt is the earliest cycle fetch may resume after a
	// mispredict redirect.
	FetchResumeAt int64

	// PendingAccess lists issued loads awaiting cache acceptance, in age
	// order.
	PendingAccess []*DynInst
	// nextAccessAt is the earliest cycle a pending load can probe the
	// cache (now+1 when one is blocked and must retry): cacheAccess's
	// active-set gate. Maintained at load issue and after every walk.
	nextAccessAt int64

	// gradNextAt is the earliest cycle the ROB head can possibly
	// graduate, when that bound is known (0 = probe every cycle, Never =
	// parked on an empty ROB until dispatch pushes): graduate's
	// active-set gate.
	gradNextAt int64

	// issueStall caches a provably-stalled stream head's verdict per
	// unit: until the recorded cycle, issueStream replays the verdict —
	// reason, and the head's memory-stall accrual via mem — without
	// walking the queue. Armed only for blocking conditions with a known
	// expiry; the empty-queue verdict (until = Never) is disarmed by the
	// next dispatch push.
	issueStall [isa.NumUnits]issueStall

	// sinceLoD counts fetched instructions toward the next
	// loss-of-decoupling event (config.Speculation.LoDEvery), and
	// lodPending holds fetch until the execute queue drains once one
	// fires. Untouched (always zero) when the extension is off.
	sinceLoD   int64
	lodPending bool

	// files indexes the physical register files by unit (branch-free
	// file()).
	files [isa.NumUnits]*regfile.File

	// pool recycles DynInst allocations.
	pool []*DynInst
}

// issueStall is one stream's cached stall verdict (see Context.issueStall).
type issueStall struct {
	until  int64
	reason stats.WasteReason
	mem    *DynInst // head charged with MemStall while cached, if any
}

// newContext builds a context for machine m.
func newContext(id int, m config.Machine, src trace.Reader) (*Context, error) {
	kind := m.Predictor
	if kind == "" {
		kind = branch.KindBHT
	}
	pred, err := branch.New(kind, m.BHTEntries)
	if err != nil {
		return nil, err
	}
	maxBr := m.MaxUnresolvedBranches
	if maxBr < 1 {
		maxBr = 1
	}
	c := &Context{
		ID:                  id,
		Source:              src,
		nextBranchResolveAt: Never,
		issuedBranches:      queue.New[*DynInst](maxBr),
		FetchBuf:            queue.New[*DynInst](m.FetchBufSize),
		APQ:                 queue.New[*DynInst](m.APQSize),
		EPQ:                 queue.New[*DynInst](m.IQSize),
		ROB:                 queue.New[*DynInst](m.ROBSize),
		SAQ:                 queue.New[*DynInst](m.SAQSize),
		APFile:              regfile.New(m.APRegs),
		EPFile:              regfile.New(m.EPRegs),
		Map:                 rename.NewTable(),
		Pred:                pred,
	}
	c.files[isa.AP] = c.APFile
	c.files[isa.EP] = c.EPFile
	c.peeker, _ = src.(trace.Peeker)
	c.filler, _ = src.(trace.Filler)
	if err := c.Map.Init(c.APFile, c.EPFile); err != nil {
		return nil, fmt.Errorf("thread %d: %w", id, err)
	}
	return c, nil
}

// file returns the register file for the given unit.
func (c *Context) file(u isa.Unit) *regfile.File { return c.files[u] }

// poolBlock is the batch size of DynInst pool growth: one backing array
// per block amortizes ramp-up allocation and keeps in-flight instructions
// dense in memory.
const poolBlock = 64

// alloc takes a DynInst from the pool (growing it a block at a time) and
// resets it. In steady state the pool recycles without allocating.
func (c *Context) alloc() *DynInst {
	if len(c.pool) == 0 {
		block := make([]DynInst, poolBlock)
		for i := range block {
			c.pool = append(c.pool, &block[i])
		}
	}
	n := len(c.pool) - 1
	d := c.pool[n]
	c.pool = c.pool[:n]
	d.reset()
	return d
}

// release returns a graduated DynInst to the pool.
func (c *Context) release(d *DynInst) {
	c.pool = append(c.pool, d)
}

// lookahead is the capacity of a context's lookahead batch.
const lookahead = 64

// peekSource returns the next trace instruction without consuming it.
// Sources with native lookahead (trace.Peeker — interned workload
// streams) hand back a pointer into their own buffer, copy-free; others
// go through the lookahead batch.
func (c *Context) peekSource() (*isa.Inst, bool) {
	if c.peeker != nil {
		if c.Exhausted {
			return nil, false
		}
		in, ok := c.peeker.PeekNext()
		if !ok {
			c.Exhausted = true
		}
		return in, ok
	}
	if c.aheadPos < c.aheadLen {
		return &c.ahead[c.aheadPos], true
	}
	if c.Exhausted {
		return nil, false
	}
	n := 0
	if c.filler != nil {
		n = c.filler.Fill(c.ahead[:])
	} else if c.Source.Next(&c.ahead[0]) {
		n = 1
	}
	c.aheadPos, c.aheadLen = 0, n
	if n == 0 {
		c.Exhausted = true
		return nil, false
	}
	return &c.ahead[0], true
}

// consumeSource consumes the peeked instruction.
func (c *Context) consumeSource() {
	if c.peeker != nil {
		c.peeker.Consume()
		return
	}
	if c.aheadPos >= c.aheadLen {
		panic("core: consumeSource without peek")
	}
	c.aheadPos++
}

// InFlight returns the number of instructions in the ROB (dispatched, not
// graduated), used by tests and the drain logic.
func (c *Context) InFlight() int { return c.ROB.Len() }
