package core

import (
	"repro/internal/isa"
	"repro/internal/regfile"
	"repro/internal/stats"
)

// Never is a cycle count beyond any simulation horizon, used for event
// times that are not yet known (e.g. a load's completion before the cache
// has accepted it). It aliases the register files' sentinel so the two
// never diverge.
const Never = regfile.NeverReady

// DynInst is one in-flight dynamic instruction. Instances live in place
// in their context's program-order window (Context.win) from fetch to
// graduation. Fields are ordered by size so the record packs into 104
// bytes.
type DynInst struct {
	isa.Inst

	// Seq is the per-thread program order number (dense, starting at 0).
	Seq int64
	// FetchedAt is the cycle the instruction was fetched (used by the
	// oldest-first issue policy).
	FetchedAt int64
	// DoneAt is the cycle the result is complete: issue cycle + latency
	// for ALU ops and branches, the data-return cycle for loads, Never
	// while unknown. Stores use addr/data state instead (see graduate).
	DoneAt int64
	// AccessAt is the earliest cycle a load/store may probe the cache
	// (address available, one AP latency after issue).
	AccessAt int64
	// StallUntil caches the earliest cycle a blocked stream head could
	// become issuable, with StallReason the waste classification that
	// holds until then. classify consults the cache instead of re-probing
	// the register files; it is only set when the blocking operand's
	// delivery time is known (so the classification provably cannot
	// change earlier).
	StallUntil int64
	// MemStall counts cycles this instruction sat at the head of its
	// issue stream blocked on the operand in BlockPhys while issue slots
	// were available — the raw material of the perceived-latency metric.
	MemStall int64

	// PDest is the renamed destination register (in DestUnit's file), or
	// regfile.None.
	PDest regfile.PhysReg
	// POld is the destination's previous mapping, freed at graduation.
	POld regfile.PhysReg
	// PSrc1 and PSrc2 are the renamed sources (regfile.None when absent).
	PSrc1, PSrc2 regfile.PhysReg
	// BlockPhys/BlockFile identify the missed-load operand currently
	// blocking this instruction (regfile.None when none).
	BlockPhys regfile.PhysReg

	// Unit is the processing unit the instruction issues in (steering).
	Unit isa.Unit
	// DestFile is the unit whose register file hosts the destination
	// (isa.DestUnit, computed once at fetch).
	DestFile isa.Unit
	// Src1File and Src2File identify which unit's file hosts each source.
	Src1File, Src2File isa.Unit
	// BlockFile is the file hosting BlockPhys.
	BlockFile isa.Unit
	// StallReason is the verdict cached until StallUntil.
	StallReason stats.WasteReason
	// Issued marks that the instruction left its issue queue.
	Issued bool
	// Mispredicted marks a branch whose predicted direction was wrong;
	// the thread's fetch is stalled until it resolves.
	Mispredicted bool
}

// reset clears a window slot for a newly fetched instruction. The
// whole-struct zero is a single memclr; the non-zero sentinels are
// written individually (a composite literal with non-zero fields would
// build a stack temporary and block-copy it, which is measurably slower
// on this hot path).
func (d *DynInst) reset() {
	*d = DynInst{}
	d.PDest = regfile.None
	d.POld = regfile.None
	d.PSrc1 = regfile.None
	d.PSrc2 = regfile.None
	d.BlockPhys = regfile.None
	d.DoneAt = Never
	d.AccessAt = Never
}

// The per-physical-register classification flags (missed-load marking
// and perceived-latency sampling state) live in regfile.Entry, merged
// with the register's ready time so the issue stage's operand check and
// the sampling that follows share one cache line.
