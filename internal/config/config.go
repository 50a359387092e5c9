// Package config defines the machine configuration for the multithreaded
// decoupled processor and provides the paper's two reference presets:
//
//   - Figure2: the Section-3 multithreaded machine (8-way issue, 4 AP FUs
//     at latency 1, 4 EP FUs at latency 4, 4-port 64 KB L1, 16-cycle L2,
//     per-thread IQ 48 / SAQ 32 / 64+96 physical registers / 2K-entry BHT,
//     fetch 2 threads × 8 instructions with ICOUNT, ≤4 unresolved
//     branches);
//   - Section2: the single-threaded latency-hiding study machine (4-way
//     issue from a shared pool of 4 general-purpose FUs, 2-port L1, and
//     every queue/register file scaled proportionally to the L2 latency).
package config

import (
	"errors"
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/mem"
)

// IssuePolicy selects how issue slots are shared between threads.
type IssuePolicy string

const (
	// IssueRoundRobin rotates thread priority every cycle (the paper's
	// "full simultaneous issue" with round-robin priorities).
	IssueRoundRobin IssuePolicy = "rr"
	// IssueOldestFirst gives priority to the thread whose stream head
	// was fetched earliest (Tullsen's oldest-first heuristic; ablation).
	IssueOldestFirst IssuePolicy = "oldest"
)

// FetchPolicy selects how the fetch stage picks threads each cycle.
type FetchPolicy string

const (
	// FetchICOUNT picks the threads with the fewest instructions pending
	// dispatch (the paper's policy, after Tullsen's ICOUNT).
	FetchICOUNT FetchPolicy = "icount"
	// FetchRoundRobin rotates through threads regardless of occupancy
	// (ablation A2).
	FetchRoundRobin FetchPolicy = "rr"
)

// Machine is the complete parameter set for one simulated configuration.
type Machine struct {
	// Threads is the number of hardware contexts per core.
	Threads int
	// Cores is the number of cores of a chip multiprocessor: each core
	// replicates the full pipeline — Threads SMT contexts, decoupled
	// AP/EP queues, private L1 and MSHRs — and the cores compose over
	// the shared memory levels (the finite Hierarchy, or the flat
	// infinite L2) with write-invalidate coherence between the private
	// L1s. Zero or one selects the paper's single-core machine, whose
	// simulation path (and result encoding) is unchanged; the omitempty
	// keeps every pre-CMP configuration hash pinned.
	Cores int `json:",omitempty"`
	// Decoupled selects the decoupled issue model; false disables the
	// instruction queues' slippage (the paper's "non-decoupled" machine:
	// per-thread program-order issue across both units).
	Decoupled bool

	// FetchThreads is how many threads may fetch per cycle (2).
	FetchThreads int
	// FetchWidth is the maximum instructions fetched per thread per cycle
	// (8, up to the first predicted-taken branch).
	FetchWidth int
	// FetchPolicy picks fetch threads (ICOUNT in the paper).
	FetchPolicy FetchPolicy
	// FetchBufSize is the per-thread buffer between fetch and dispatch.
	FetchBufSize int
	// MaxUnresolvedBranches is the per-thread control speculation limit (4).
	MaxUnresolvedBranches int
	// BHTEntries sizes the per-thread branch history table (2048).
	BHTEntries int
	// Predictor selects the branch predictor implementation; empty means
	// the paper's 2-bit BHT (ablation A7 compares alternatives).
	Predictor branch.Kind

	// DispatchWidth is the total instructions renamed/steered per cycle (8).
	DispatchWidth int

	// IssuePolicy arbitrates issue slots between threads; empty means
	// round-robin (the paper's scheme).
	IssuePolicy IssuePolicy

	// APWidth and EPWidth are the per-unit issue widths; with fully
	// pipelined FUs they equal the FU counts (4 and 4).
	APWidth, EPWidth int
	// SharedFUs, when positive, caps total issue across both units — the
	// Section-2 machine's "4 general purpose functional units". Zero means
	// the units have private FU pools.
	SharedFUs int
	// APLatency and EPLatency are the FU latencies in cycles (1 and 4).
	APLatency, EPLatency int64

	// IQSize is the per-thread EP instruction queue (48): the decoupling
	// slippage window.
	IQSize int
	// APQSize is the per-thread AP-side dispatch queue. The paper does not
	// size it separately; it defaults to IQSize.
	APQSize int
	// SAQSize is the per-thread store address queue (32).
	SAQSize int
	// ROBSize is the per-thread reorder buffer.
	ROBSize int
	// APRegs and EPRegs are the per-thread physical register file sizes
	// (64 and 96).
	APRegs, EPRegs int
	// GraduateWidth is the per-thread graduation bandwidth per cycle.
	GraduateWidth int

	// MSHRsPerThread sizes the lockup-free miss capacity per hardware
	// context (16 in Figure 2). Like the queues and register files, miss
	// tracking replicates with contexts; the shared-cache resources the
	// threads compete for are the ports, the array itself and the bus.
	// When zero, Mem.MSHRs is used directly as a fixed total (for
	// ablations).
	MSHRsPerThread int

	// StoreForwarding enables store→load data forwarding from the SAQ
	// (ablation A4; off reproduces the paper's bypass-only behaviour,
	// where a load to a conflicting pending-store address waits for the
	// store to commit).
	StoreForwarding bool

	// Spec enables the speculative access/execute extension (see
	// Speculation). Nil — the canonical spelling of "off", kept by
	// request normalization so every pre-existing configuration hash is
	// pinned — runs the paper's non-speculative machine.
	Spec *Speculation `json:",omitempty"`

	// Mem is the memory subsystem configuration.
	Mem mem.Config

	// ScaleWithLatency applies the Section-2 rule: "the sizes of all the
	// architectural queues and physical register files are scaled up
	// proportionally to the L2 latency". The scale factor is
	// ceil(L2Latency/16), i.e. 1 at the paper's 16-cycle baseline.
	ScaleWithLatency bool
}

// Speculation parameterizes the speculative-DAE extension, after
// Szafarczyk et al.: a decoupled access slice that no longer waits for
// may-alias or control dependences but issues a fraction of its loads
// speculatively, paying a squash-and-refetch penalty when one
// misspeculates, plus periodic loss-of-decoupling (LoD) events where a
// value computed in the execute slice feeds an address — fetch must
// hold until the execute queue drains, collapsing the AP/EP slip the
// whole model exists to create. All draws are derived from deterministic
// hashes of (PC, sequence number, context), so runs are reproducible
// and independent of execution mode and host parallelism.
type Speculation struct {
	// SpecLoadFrac is the fraction of loads hoisted speculatively into
	// the access slice, in [0,1]. Zero disables speculative issue (LoD
	// modeling may still be on).
	SpecLoadFrac float64 `json:",omitempty"`
	// MisspecProb is the probability, in [0,1], that a speculative load
	// misspeculates and squashes its thread's fetch stream.
	MisspecProb float64 `json:",omitempty"`
	// SquashCycles is the refetch penalty of one squash; zero means
	// DefaultSquashCycles (request normalization spells the default out
	// so both spellings hash identically).
	SquashCycles int64 `json:",omitempty"`
	// LoDEvery injects one loss-of-decoupling event per context every
	// LoDEvery fetched instructions (zero: never).
	LoDEvery int64 `json:",omitempty"`
}

// DefaultSquashCycles is the squash refetch penalty applied when
// Speculation.SquashCycles is zero: a mispredict-flavoured pipeline
// refill.
const DefaultSquashCycles = 8

// WithSpeculation returns a copy of m with the speculative-DAE knobs
// set.
func (m Machine) WithSpeculation(s Speculation) Machine {
	m.Spec = &s
	return m
}

// Figure2 returns the Section-3 multithreaded decoupled machine with the
// given number of hardware contexts.
func Figure2(threads int) Machine {
	return Machine{
		Threads:               threads,
		Decoupled:             true,
		FetchThreads:          2,
		FetchWidth:            8,
		FetchPolicy:           FetchICOUNT,
		FetchBufSize:          16,
		MaxUnresolvedBranches: 4,
		BHTEntries:            2048,
		DispatchWidth:         8,
		APWidth:               4,
		EPWidth:               4,
		APLatency:             1,
		EPLatency:             4,
		MSHRsPerThread:        16,
		IQSize:                48,
		APQSize:               48,
		SAQSize:               32,
		ROBSize:               128,
		APRegs:                64,
		EPRegs:                96,
		GraduateWidth:         8,
		Mem: mem.Config{
			L1:               cache.Config{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 1},
			Ports:            4,
			MSHRs:            16,
			HitLatency:       1,
			L2Latency:        16,
			BusBytesPerCycle: 16,
		},
	}
}

// Section2 returns the single-threaded machine of the paper's Section 2:
// 4-way issue from a shared pool of 4 general-purpose FUs, a 2-port L1,
// and queue/register-file scaling with L2 latency enabled.
func Section2() Machine {
	m := Figure2(1)
	m.DispatchWidth = 4
	m.FetchThreads = 1
	m.APWidth = 4
	m.EPWidth = 4
	m.SharedFUs = 4
	m.GraduateWidth = 4
	m.Mem.Ports = 2
	m.ScaleWithLatency = true
	return m
}

// NonDecoupled returns a copy of m with the instruction queues' slippage
// disabled (the paper's degenerate comparison machine).
func (m Machine) NonDecoupled() Machine {
	m.Decoupled = false
	return m
}

// WithL2Latency returns a copy of m with the flat L2 latency set (the
// paper's swept parameter). It applies to the default infinite-L2 model
// only; machines built with WithHierarchy ignore it (and Validate
// rejects a non-zero flat latency there).
func (m Machine) WithL2Latency(lat int64) Machine {
	m.Mem.L2Latency = lat
	return m
}

// WithHierarchy returns a copy of m running a finite shared memory
// hierarchy in place of the paper's flat infinite L2: the given levels
// compose under the private L1 (levels[0] is the shared L2), the last
// one backed by a fixed-latency DRAM reached over that level's
// BusBytesPerCycle-wide memory bus. The flat L2Latency is zeroed — it is
// meaningless under a hierarchy, and normalizing it keeps every
// hierarchy machine's content hash canonical.
func (m Machine) WithHierarchy(dramLatency int64, levels ...mem.LevelSpec) Machine {
	m.Mem.Hierarchy = append([]mem.LevelSpec(nil), levels...)
	m.Mem.DRAMLatency = dramLatency
	m.Mem.L2Latency = 0
	return m
}

// SharedL2 returns a LevelSpec for a finite shared L2 with the given
// capacity and associativity and Figure-2-flavoured defaults: 32-byte
// lines matching the L1, 16 MSHRs, a 16-cycle array access (the paper's
// baseline flat-L2 latency, so an L2 hit costs what the default model
// charges every miss), and a 16-byte/cycle downstream bus.
func SharedL2(sizeBytes, assoc int) mem.LevelSpec {
	return mem.LevelSpec{
		Name:             "L2",
		Cache:            cache.Config{SizeBytes: sizeBytes, LineBytes: 32, Assoc: assoc},
		MSHRs:            16,
		HitLatency:       16,
		BusBytesPerCycle: 16,
	}
}

// WithThreads returns a copy of m with the thread count set.
func (m Machine) WithThreads(n int) Machine {
	m.Threads = n
	return m
}

// WithCores returns a copy of m with the core count set (see Cores).
func (m Machine) WithCores(n int) Machine {
	m.Cores = n
	return m
}

// WithPrivateHierarchy returns a copy of m whose hierarchy levels are
// replicated per core (each core gets its own finite L2 chain over the
// shared DRAM) instead of shared between the cores — the private-vs-
// shared L2 axis of figure C1. Meaningful only with Cores > 1 and a
// finite hierarchy.
func (m Machine) WithPrivateHierarchy() Machine {
	m.Mem.PrivateHierarchy = true
	return m
}

// CoreCount returns the effective number of cores (Cores, floored at 1:
// zero is the canonical single-core spelling).
func (m Machine) CoreCount() int {
	if m.Cores > 1 {
		return m.Cores
	}
	return 1
}

// TotalContexts returns the machine-wide hardware context count:
// CoreCount() × Threads. Workload builders produce one instruction
// stream per context, core c running contexts [c×Threads, (c+1)×Threads).
func (m Machine) TotalContexts() int { return m.CoreCount() * m.Threads }

// scaleFactor implements the Section-2 scaling rule: ceil(L2Latency/16).
// A factor past MaxEntries, which checkBounds rejects, is clamped to
// MaxEntries+1, so a huge latency can neither wrap the int64 sum nor a
// 32-bit int.
func (m Machine) scaleFactor() int {
	if !m.ScaleWithLatency || m.Mem.L2Latency <= 16 {
		return 1
	}
	return int(min((m.Mem.L2Latency-1)/16+1, MaxEntries+1))
}

// Effective returns the machine with derived sizes resolved: the MSHR
// total (per-thread capacity × contexts) and, when ScaleWithLatency is
// set, the Section-2 latency-proportional scaling of every buffer.
func (m Machine) Effective() Machine {
	f := m.scaleFactor()
	if m.MSHRsPerThread > 0 {
		m.Mem.MSHRs = m.MSHRsPerThread * m.Threads * f
	}
	if f == 1 {
		return m
	}
	m.IQSize *= f
	m.APQSize *= f
	m.SAQSize *= f
	m.ROBSize *= f
	// Physical files scale on top of the architectural baseline: the 32
	// architectural mappings are a fixed cost, the in-flight capacity is
	// what the paper scales.
	m.APRegs = 32 + (m.APRegs-32)*f
	m.EPRegs = 32 + (m.EPRegs-32)*f
	m.FetchBufSize *= f
	return m
}

// ErrInvalid is wrapped by every Validate failure, so callers anywhere
// up the stack (the runner, the public Engine, the HTTP service) can
// classify configuration errors with errors.Is without matching message
// text. The public API re-exports it as daesim.ErrInvalidConfig.
var ErrInvalid = errors.New("invalid machine configuration")

// Validate checks the configuration for consistency.
func (m Machine) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("config: %w: %s", ErrInvalid, fmt.Sprintf(format, args...))
	}
	switch {
	case m.Threads <= 0:
		return fail("threads %d must be positive", m.Threads)
	case m.Cores < 0:
		return fail("cores %d must be non-negative", m.Cores)
	case m.Mem.PrivateHierarchy && m.CoreCount() == 1:
		// A single core's "private" hierarchy is just the hierarchy; the
		// stray spelling would hash apart from the canonical machine.
		return fail("private hierarchy requires multiple cores")
	case m.ScaleWithLatency && m.CoreCount() > 1:
		// The Section-2 scaling rule targets the single-threaded
		// latency study; its interaction with CMP composition is
		// undefined.
		return fail("latency-proportional scaling applies only to single-core machines")
	case m.FetchThreads <= 0:
		return fail("fetch threads %d must be positive", m.FetchThreads)
	case m.FetchWidth <= 0:
		return fail("fetch width %d must be positive", m.FetchWidth)
	case m.FetchBufSize < m.FetchWidth:
		return fail("fetch buffer %d smaller than fetch width %d", m.FetchBufSize, m.FetchWidth)
	case m.MaxUnresolvedBranches <= 0:
		return fail("unresolved branch limit %d must be positive", m.MaxUnresolvedBranches)
	case m.BHTEntries <= 0 || m.BHTEntries&(m.BHTEntries-1) != 0:
		return fail("BHT entries %d must be a positive power of two", m.BHTEntries)
	case m.DispatchWidth <= 0:
		return fail("dispatch width %d must be positive", m.DispatchWidth)
	case m.APWidth <= 0 || m.EPWidth <= 0:
		return fail("unit widths (%d,%d) must be positive", m.APWidth, m.EPWidth)
	case m.SharedFUs < 0:
		return fail("shared FUs %d must be non-negative", m.SharedFUs)
	case m.MSHRsPerThread < 0:
		return fail("MSHRs per thread %d must be non-negative", m.MSHRsPerThread)
	case m.APLatency <= 0 || m.EPLatency <= 0:
		return fail("FU latencies (%d,%d) must be positive", m.APLatency, m.EPLatency)
	case m.IQSize <= 0 || m.APQSize <= 0 || m.SAQSize <= 0 || m.ROBSize <= 0:
		return fail("queue sizes (%d,%d,%d,%d) must be positive", m.IQSize, m.APQSize, m.SAQSize, m.ROBSize)
	case m.APRegs < 32+1:
		return fail("AP registers %d must exceed the 32 architectural mappings", m.APRegs)
	case m.EPRegs < 32+1:
		return fail("EP registers %d must exceed the 32 architectural mappings", m.EPRegs)
	case m.GraduateWidth <= 0:
		return fail("graduate width %d must be positive", m.GraduateWidth)
	case m.ScaleWithLatency && len(m.Mem.Hierarchy) > 0:
		// The Section-2 rule scales buffers with the flat L2 latency,
		// which a finite hierarchy does not have.
		return fail("latency-proportional scaling applies only to the flat L2 model")
	}
	if s := m.Spec; s != nil {
		switch {
		case *s == (Speculation{}):
			// The canonical spelling of "off" is a nil Spec; the stray
			// all-zero block would hash apart from the same machine.
			return fail("empty speculation block (omit Spec to disable)")
		case s.SpecLoadFrac < 0 || s.SpecLoadFrac > 1:
			return fail("speculative load fraction %g outside [0,1]", s.SpecLoadFrac)
		case s.MisspecProb < 0 || s.MisspecProb > 1:
			return fail("misspeculation probability %g outside [0,1]", s.MisspecProb)
		case s.SquashCycles < 0:
			return fail("squash cycles %d must be non-negative", s.SquashCycles)
		case s.LoDEvery < 0:
			return fail("LoD period %d must be non-negative", s.LoDEvery)
		case s.SpecLoadFrac == 0 && (s.MisspecProb > 0 || s.SquashCycles > 0):
			return fail("misspeculation knobs are inert without a speculative load fraction")
		}
	}
	switch m.FetchPolicy {
	case FetchICOUNT, FetchRoundRobin, "":
	default:
		return fail("unknown fetch policy %q", m.FetchPolicy)
	}
	switch m.IssuePolicy {
	case IssueRoundRobin, IssueOldestFirst, "":
	default:
		return fail("unknown issue policy %q", m.IssuePolicy)
	}
	switch m.Predictor {
	case branch.KindBHT, branch.KindGshare, branch.KindTaken, branch.KindNotTaken, "":
	default:
		return fail("unknown predictor %q", m.Predictor)
	}
	if err := m.Mem.Validate(); err != nil {
		return fmt.Errorf("config: %w: %w", ErrInvalid, err)
	}
	return m.checkBounds()
}

// Upper bounds on a machine's size. Validate applies them to the
// effective machine — after the Section-2 scaling and the per-context
// MSHR resolution — so that no accepted configuration can allocate the
// host out of memory. Every bound sits far above the machines the
// figures, ablations and examples build: the largest, Figure 4 at
// L2=256 with scaling, has 4 contexts of about 6K in-flight entries.
const (
	// MaxContexts bounds Cores × Threads.
	MaxContexts = 256
	// MaxEntries bounds each structure after scaling: the fetch buffer,
	// every queue, the ROB, both register files, the branch limit, the
	// BHT and each MSHR file.
	MaxEntries = 1 << 16
	// MaxInFlightEntries bounds the fetch buffers, queues, ROBs and
	// register files summed over every context (at most about 100 MiB
	// of simulator state).
	MaxInFlightEntries = 1 << 20
	// MaxCacheLines bounds the line frames summed over every cache of
	// the machine.
	MaxCacheLines = 1 << 22
)

// checkBounds enforces the upper bounds. The raw fields are checked
// first, so the products Effective forms cannot overflow.
func (m Machine) checkBounds() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("config: %w: %s", ErrInvalid, fmt.Sprintf(format, args...))
	}
	type field struct {
		name string
		n    int
	}
	inFlight := func(m Machine) []field {
		return []field{
			{"fetch buffer", m.FetchBufSize}, {"IQ", m.IQSize}, {"APQ", m.APQSize},
			{"SAQ", m.SAQSize}, {"ROB", m.ROBSize}, {"AP registers", m.APRegs},
			{"EP registers", m.EPRegs},
		}
	}
	fields := func(m Machine) []field {
		return append(inFlight(m), field{"branch limit", m.MaxUnresolvedBranches},
			field{"BHT entries", m.BHTEntries}, field{"MSHRs per thread", m.MSHRsPerThread},
			field{"MSHRs", m.Mem.MSHRs}, field{"scale factor", m.scaleFactor()})
	}
	if m.Threads > MaxContexts || m.Cores > MaxContexts || m.TotalContexts() > MaxContexts {
		return fail("%d cores × %d threads exceed %d contexts", m.CoreCount(), m.Threads, MaxContexts)
	}
	for _, f := range fields(m) {
		if f.n > MaxEntries {
			return fail("%s %d exceeds %d", f.name, f.n, MaxEntries)
		}
	}
	e := m.Effective()
	contexts := e.TotalContexts()
	for _, f := range fields(e) {
		if f.n > MaxEntries {
			return fail("effective %s %d exceeds %d", f.name, f.n, MaxEntries)
		}
	}
	total := 0
	for _, f := range inFlight(e) {
		total += f.n
	}
	if total*contexts > MaxInFlightEntries {
		return fail("%d contexts × %d in-flight entries exceed %d", contexts, total, MaxInFlightEntries)
	}
	lines := func(c cache.Config) int { return c.SizeBytes / c.LineBytes }
	if lines(e.Mem.L1) > MaxCacheLines {
		return fail("L1 of %d lines exceeds %d", lines(e.Mem.L1), MaxCacheLines)
	}
	cacheLines := lines(e.Mem.L1) * e.CoreCount()
	for _, lv := range e.Mem.Hierarchy {
		n := lines(lv.Cache)
		if n > MaxCacheLines || lv.MSHRs > MaxEntries {
			return fail("level %q of %d lines and %d MSHRs exceeds %d lines or %d MSHRs",
				lv.Name, n, lv.MSHRs, MaxCacheLines, MaxEntries)
		}
		if e.Mem.PrivateHierarchy {
			n *= e.CoreCount()
		}
		cacheLines += n
	}
	if cacheLines > MaxCacheLines {
		return fail("%d cache lines in total exceed %d", cacheLines, MaxCacheLines)
	}
	return nil
}
