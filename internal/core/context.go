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

	// filler is Source's bulk-read interface when it has one (workload
	// generators, interned and trace-file replays).
	filler trace.Filler
	// ahead[aheadPos:aheadLen] is the lookahead batch, read before the
	// Source: fetch must inspect the next instruction before consuming it
	// (to stop *before* a branch that would exceed the control-speculation
	// limit). A Filler refills the whole batch in one call, a plain Reader
	// one record per Next; the functional warp tops the batch up to
	// capacity (window). Reading ahead is invisible to the machine: the
	// context owns its source exclusively.
	ahead              [lookahead]isa.Inst
	aheadPos, aheadLen int

	// win is the program-order window: every instruction from fetch to
	// graduation, stored in place. Slots [head, disp) — robLen of them,
	// wrapping round the array — are the reorder buffer, and the fbLen
	// slots from disp to tail the fetch buffer. Fetch writes the slot at
	// tail; dispatch and graduation only move cursors. The array holds
	// FetchBufSize+ROBSize slots, so the two never overlap, and it never
	// moves: the issue queues, the SAQ and the branch list point into it.
	// fbLen is the ICOUNT fetch-policy metric.
	win              []DynInst
	head, disp, tail int
	robLen, fbLen    int
	robCap, fbCap    int

	// APQ and EPQ are the per-unit in-order issue queues. EPQ is the
	// paper's Instruction Queue — the decoupling slippage window.
	APQ, EPQ *queue.Ring[*DynInst]
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
		APQ:                 queue.New[*DynInst](m.APQSize),
		EPQ:                 queue.New[*DynInst](m.IQSize),
		win:                 make([]DynInst, m.FetchBufSize+m.ROBSize),
		robCap:              m.ROBSize,
		fbCap:               m.FetchBufSize,
		SAQ:                 queue.New[*DynInst](m.SAQSize),
		APFile:              regfile.New(m.APRegs),
		EPFile:              regfile.New(m.EPRegs),
		Map:                 rename.NewTable(),
		Pred:                pred,
	}
	c.files[isa.AP] = c.APFile
	c.files[isa.EP] = c.EPFile
	c.filler, _ = src.(trace.Filler)
	if err := c.Map.Init(c.APFile, c.EPFile); err != nil {
		return nil, fmt.Errorf("thread %d: %w", id, err)
	}
	return c, nil
}

// file returns the register file for the given unit.
func (c *Context) file(u isa.Unit) *regfile.File { return c.files[u] }

// next returns the window index after i.
func (c *Context) next(i int) int {
	if i++; i == len(c.win) {
		return 0
	}
	return i
}

// fetchSlot appends a cleared slot to the fetch buffer and returns it.
// The caller checks the buffer is not full.
func (c *Context) fetchSlot() *DynInst {
	d := &c.win[c.tail]
	c.tail = c.next(c.tail)
	c.fbLen++
	d.reset()
	return d
}

// fetchHead returns the oldest fetched instruction awaiting dispatch, or
// nil when the fetch buffer is empty.
func (c *Context) fetchHead() *DynInst {
	if c.fbLen == 0 {
		return nil
	}
	return &c.win[c.disp]
}

// dispatchHead moves the fetch buffer's head into the reorder buffer.
func (c *Context) dispatchHead() {
	c.disp = c.next(c.disp)
	c.fbLen--
	c.robLen++
}

// robHead returns the oldest instruction in the reorder buffer, or nil
// when it is empty.
func (c *Context) robHead() *DynInst {
	if c.robLen == 0 {
		return nil
	}
	return &c.win[c.head]
}

// graduateHead retires the reorder buffer's head, freeing its slot.
func (c *Context) graduateHead() {
	c.head = c.next(c.head)
	c.robLen--
}

// lookahead is the capacity of a context's lookahead batch.
const lookahead = 64

// peekSource returns the next trace instruction without consuming it,
// refilling the lookahead batch from the source when it is empty.
func (c *Context) peekSource() (*isa.Inst, bool) {
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
func (c *Context) consumeSource() { c.aheadPos++ }

// window returns the lookahead batch topped up to capacity, for the
// functional warp to consume in bulk: a Filler tops it up with one call,
// a plain Reader one record at a time. Full windows keep round-robin
// contexts in phase, so a warp pass replays whole batches. Empty means
// the source has run dry. Consume a prefix with advance.
func (c *Context) window() []isa.Inst {
	if !c.Exhausted && c.aheadLen-c.aheadPos < lookahead {
		n := copy(c.ahead[:], c.ahead[c.aheadPos:c.aheadLen])
		if c.filler != nil {
			n += c.filler.Fill(c.ahead[n:])
		} else {
			for n < lookahead && c.Source.Next(&c.ahead[n]) {
				n++
			}
		}
		c.aheadPos, c.aheadLen = 0, n
		c.Exhausted = n == 0
	}
	return c.ahead[c.aheadPos:c.aheadLen]
}

// advance consumes the first k records of the current window.
func (c *Context) advance(k int) { c.aheadPos += k }
