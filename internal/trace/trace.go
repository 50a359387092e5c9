// Package trace defines the dynamic instruction stream abstraction that
// feeds the simulator, together with combinators (limit, concatenation,
// interleaving, skipping). It holds no file codec: trace files are
// package traceio's.
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
// and Consume advances past it. Interned workload streams implement it.
// The core does not use it (it reads every source through its own
// lookahead batch, filled by Filler where available); the benchmark's
// timing wrapper still names it.
type Peeker interface {
	Reader
	PeekNext() (*isa.Inst, bool)
	Consume()
}

// Filler is an optional Reader extension for bulk reads: Fill writes the
// next records of the stream into dst and returns how many it wrote,
// exactly the records len(dst) Next calls would have produced. It returns
// fewer than len(dst) only when the stream ends. Workload generators,
// interned replays and trace-file replays implement it so the core fills its per-context
// lookahead batch with one call instead of one interface call per
// instruction.
type Filler interface {
	Reader
	Fill(dst []isa.Inst) int
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

// Limit returns a Reader that yields at most n instructions from r.
func Limit(r Reader, n int64) Reader {
	remaining := n
	return Func(func(out *isa.Inst) bool {
		if remaining <= 0 {
			return false
		}
		if !r.Next(out) {
			remaining = 0
			return false
		}
		remaining--
		return true
	})
}

// Concat returns a Reader that yields all instructions from each reader in
// turn.
func Concat(readers ...Reader) Reader {
	idx := 0
	return Func(func(out *isa.Inst) bool {
		for idx < len(readers) {
			if readers[idx].Next(out) {
				return true
			}
			idx++
		}
		return false
	})
}

// Interleave returns a Reader that alternates between the given readers
// instruction by instruction (round-robin), dropping exhausted readers.
// Useful for building custom multiprogrammed streams for a single
// context.
func Interleave(readers ...Reader) Reader {
	live := append([]Reader(nil), readers...)
	next := 0
	return Func(func(out *isa.Inst) bool {
		for len(live) > 0 {
			if next >= len(live) {
				next = 0
			}
			if live[next].Next(out) {
				next++
				return true
			}
			live = append(live[:next], live[next+1:]...)
		}
		return false
	})
}

// Skip discards the first n instructions of r (the paper skips each
// benchmark's start-up phase before measuring) and returns r.
func Skip(r Reader, n int64) Reader {
	var tmp isa.Inst
	for i := int64(0); i < n; i++ {
		if !r.Next(&tmp) {
			break
		}
	}
	return r
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
