// Package trace defines the dynamic instruction stream abstraction that
// feeds the simulator, together with the Slice and Count helpers.
// It holds no file codec: trace files are package traceio's.
//
// The paper's methodology is trace-driven simulation: DEC Alpha binaries
// instrumented with ATOM produce per-benchmark instruction traces which the
// timing simulator replays. This repository replaces the proprietary traces
// with synthetic generators (package workload) that implement the same
// Reader interface, so the simulator is indifferent to whether a stream
// comes from a generator or from a trace container replayed through
// package workload.
package trace

import "repro/internal/isa"

// Reader is a stream of dynamic instructions. Next fills *inst with the
// next record and reports whether one was available; after it returns
// false the stream is exhausted and subsequent calls must keep returning
// false.
type Reader interface {
	Next(inst *isa.Inst) bool
}

// Peeker is an optional Reader extension for zero-copy lookahead.
// PeekNext returns a pointer to the next record without consuming it —
// valid only until the next PeekNext/Consume/Next call, and read-only —
// and Consume advances past it. Only interned Mix streams implement it.
// The core does not use it (it reads every source through its own
// lookahead batch, filled by Filler where available); it stays only
// because the benchmark's timing wrapper names it.
type Peeker interface {
	Reader
	PeekNext() (*isa.Inst, bool)
	Consume()
}

// Filler is an optional Reader extension for bulk reads: Fill writes the
// next records of the stream into dst and returns how many it wrote,
// exactly the records len(dst) Next calls would have produced. It returns
// fewer than len(dst) only when the stream ends. Every stream package
// workload builds implements it — generators, mix streams, interned Mix
// replays and trace-file replays, each of whose Next is a one-record
// Fill — so the core fills its per-context lookahead batch with one call
// instead of one interface call per instruction.
type Filler interface {
	Reader
	Fill(dst []isa.Inst) int
}

// MemRef is a load's or store's footprint as Skip reports it: the
// record's index, counted from the base passed to Skip, its effective
// address, and whether it stores.
type MemRef struct {
	Addr  uint64
	Idx   uint32
	Store bool
}

// BranchRef is a branch as Skip reports it: its PC and outcome.
type BranchRef struct {
	PC    uint64
	Taken bool
}

// Refs is what Skip reports, appended in stream order: every load and
// store to Mem and every branch to Br. Other records leave no trace.
type Refs struct {
	Mem []MemRef
	Br  []BranchRef
}

// Add appends the refs of insts, the records numbered from base on, as
// Skip would report them.
func (r *Refs) Add(insts []isa.Inst, base uint32) {
	for i := range insts {
		in := &insts[i]
		switch in.Op {
		case isa.OpBranch:
			r.Br = append(r.Br, BranchRef{PC: in.PC, Taken: in.Taken})
		case isa.OpLoad, isa.OpStore:
			r.Mem = append(r.Mem, MemRef{Addr: in.Addr, Idx: base + uint32(i), Store: in.Op == isa.OpStore})
		}
	}
}

// Skipper is an optional Reader extension for the functional warp of a
// sampled run, which acts only on memory references and branches. Skip
// consumes the next n records of the stream — exactly the records n
// Next calls would have produced, leaving the stream where they would —
// without building them: it appends each load and store, its index
// numbered from base, to refs.Mem and each branch to refs.Br, and
// returns how many records it consumed. It consumes fewer than n only
// when the stream ends. Workload generators and mix streams implement
// it.
type Skipper interface {
	Reader
	Skip(refs *Refs, base uint32, n int) int
}

// Func adapts a function to the Reader interface.
type Func func(inst *isa.Inst) bool

// Next implements Reader.
func (f Func) Next(inst *isa.Inst) bool { return f(inst) }

// Slice returns a Reader that yields the given instructions in order.
// The slice is not copied; the caller must not mutate it while reading.
func Slice(insts []isa.Inst) Reader {
	i := 0
	return Func(func(out *isa.Inst) bool {
		if i >= len(insts) {
			return false
		}
		*out = insts[i]
		i++
		return true
	})
}

// Count drains r and returns the number of instructions it yielded.
func Count(r Reader) int64 {
	var tmp isa.Inst
	var n int64
	for r.Next(&tmp) {
		n++
	}
	return n
}
