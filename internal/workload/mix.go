package workload

import (
	"fmt"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/trace"
)

// MixOpts configures a per-thread multiprogrammed workload.
type MixOpts struct {
	// SegmentLen is the number of instructions taken from each benchmark
	// before rotating to the next (the paper runs "a sequence of traces
	// from all SpecFP95 programs, in a different order for each thread").
	SegmentLen int64
	// Seed perturbs each benchmark's data-dependent randomness: only
	// segments of benchmarks with loss-of-decoupling branches react to
	// it (see ReaderOpts.Seed).
	Seed uint64
}

// DefaultSegmentLen is the segment length used when MixOpts.SegmentLen is
// zero: long enough that steady-state behaviour dominates each segment,
// short enough that a per-thread measurement window of a few hundred
// thousand instructions samples most of the ten benchmarks (otherwise
// thread-count sweeps would measure workload composition, not the
// machine).
const DefaultSegmentLen = 40_000

// threadAddrStride separates the address spaces of different hardware
// contexts (multiprogrammed workloads share no data).
const threadAddrStride = uint64(1) << 36

// threadIndexSkew staggers each thread's streams across L1 sets. Without
// it, thread t's stream s would map to exactly the same sets as every
// other thread's stream s (the address-space stride has zero index bits)
// and resident streams would alias pathologically instead of competing
// for capacity the way distinct programs do.
const threadIndexSkew = uint64(0x4a60) // odd multiple of the 32-byte line

// ThreadAddrOffset returns the address-space displacement for a hardware
// context, used by every per-thread workload constructor.
func ThreadAddrOffset(threadID int) uint64 {
	return uint64(threadID+1)*threadAddrStride + uint64(threadID)*threadIndexSkew
}

// Mix returns thread `threadID`'s infinite instruction stream: the ten
// benchmarks concatenated in a rotated order (thread 0 starts at
// benchmark 0, thread 1 at benchmark 1, ...), SegmentLen instructions per
// segment, forever. Readers generate from the built-in programs shared
// across the process.
//
// Mix streams are the only ones interned (see intern.go): the second and
// later requests for the same (thread, options) stream replay a shared
// packed prefix, as far as InternBudgetBytes (256 KiB across all
// streams) let it grow, then generate the rest privately. The prefix
// saves no time; it is kept small until the interner is deleted.
func Mix(threadID int, opts MixOpts) trace.Reader {
	if threadID < 0 {
		panic(fmt.Sprintf("workload: negative thread id %d", threadID))
	}
	if opts.SegmentLen <= 0 {
		// Normalize before the intern key so explicit-default and
		// zero-value options name the same stream.
		opts.SegmentLen = DefaultSegmentLen
	}
	if InternBudgetBytes > 0 {
		key := fmt.Sprintf("mix|t=%d|seg=%d|seed=%d", threadID, opts.SegmentLen, opts.Seed)
		if s := internForKey(key, func() trace.Filler { return newMixReader(threadID, opts) }); s != nil {
			return &internReader{s: s}
		}
	}
	return newMixReader(threadID, opts)
}

// newMixReader builds the live segment-rotating reader behind Mix.
func newMixReader(threadID int, opts MixOpts) *mixReader {
	segLen := opts.SegmentLen
	if segLen <= 0 {
		segLen = DefaultSegmentLen
	}
	progs := builtinPrograms()
	return &mixReader{
		progs:    progs,
		next:     threadID % len(progs),
		segLen:   segLen,
		addrOff:  ThreadAddrOffset(threadID),
		seedBase: opts.Seed ^ (uint64(threadID)*0x9e3779b97f4a7c15 + 1),
	}
}

// MixSources builds one Mix reader per thread, rotated per the paper.
func MixSources(threads int, opts MixOpts) []trace.Reader {
	srcs := make([]trace.Reader, threads)
	for t := 0; t < threads; t++ {
		srcs[t] = Mix(t, opts)
	}
	return srcs
}

// mixReader is the live Mix stream. It implements trace.Filler and
// trace.Skipper.
type mixReader struct {
	progs    []*program // the built-in programs, shared process-wide
	next     int
	segLen   int64
	addrOff  uint64
	seedBase uint64

	gen       generator // the current segment
	remaining int64     // instructions left in the current segment
	segment   uint64    // segments started, perturbs per-segment seeds
}

// startSegment rotates to the next benchmark.
func (m *mixReader) startSegment() {
	m.gen.reset(m.progs[m.next], ReaderOpts{
		AddrOffset: m.addrOff,
		Seed:       m.seedBase + m.segment,
	})
	m.next = (m.next + 1) % len(m.progs)
	m.remaining = m.segLen
	m.segment++
}

// Next implements trace.Reader as a one-record Fill.
func (m *mixReader) Next(out *isa.Inst) bool { return m.Fill(unsafe.Slice(out, 1)) == 1 }

// Fill implements trace.Filler, splitting dst at segment boundaries.
func (m *mixReader) Fill(dst []isa.Inst) int {
	for n := 0; n < len(dst); {
		if m.remaining <= 0 {
			m.startSegment()
		}
		k := len(dst) - n
		if int64(k) > m.remaining {
			k = int(m.remaining)
		}
		m.gen.Fill(dst[n : n+k])
		m.remaining -= int64(k)
		n += k
	}
	return len(dst)
}

// Skip implements trace.Skipper, splitting the n records at segment
// boundaries as Fill does.
func (m *mixReader) Skip(refs *trace.Refs, base uint32, n int) int {
	for done := 0; done < n; {
		if m.remaining <= 0 {
			m.startSegment()
		}
		k := int(min(int64(n-done), m.remaining))
		m.gen.Skip(refs, base+uint32(done), k)
		m.remaining -= int64(k)
		done += k
	}
	return n
}
