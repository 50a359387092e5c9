// Package daesim is the public API of the multithreaded decoupled
// access/execute processor simulator, a from-scratch reproduction of
//
//	J.-M. Parcerisa and A. González,
//	"The Synergy of Multithreading and Access/Execute Decoupling",
//	HPCA 1999.
//
// The simulator models a simultaneous-multithreaded processor whose
// contexts each execute in access/execute-decoupled mode: an in-order
// Address Processor (AP) runs ahead computing addresses and issuing loads
// while an in-order Execute Processor (EP) consumes the data through a
// per-thread instruction queue. See DESIGN.md for the full model and
// EXPERIMENTS.md for the reproduction of every figure in the paper.
//
// # Quick start
//
// The unit of work is a Request — a serializable (machine, workload,
// budget) triple with a stable content hash — executed by an Engine,
// which caches, deduplicates and bounds concurrent simulations:
//
//	eng, err := daesim.NewEngine(daesim.EngineOpts{})
//	if err != nil { ... }
//	m := daesim.Figure2(3)                    // the paper's machine, 3 threads
//	rep, err := eng.Run(ctx, daesim.MixRequest(m, daesim.RunOpts{MeasureInsts: 1e6}))
//	if err != nil { ... }
//	fmt.Printf("IPC = %.2f\n", rep.IPC())
//
// Single benchmarks (the paper's Section-2 study) run the same way:
//
//	m := daesim.Section2().WithL2Latency(64)
//	rep, err := eng.Run(ctx, daesim.BenchmarkRequest("swim", m, daesim.RunOpts{MeasureInsts: 1e6}))
//
// All runs are deterministic: the same Request always produces identical
// statistics, which is why results are content-addressed by Request.Hash
// and can be shared between processes (see EngineOpts.CacheDir) or
// served over HTTP by cmd/dae-serve.
package daesim

import (
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Machine is a complete processor configuration. Construct one with
// Figure2 or Section2 and adjust it with the With* builders or direct
// field access.
type Machine = config.Machine

// Report is the statistics snapshot of a finished run: IPC, issue-slot
// breakdown, perceived load-miss latencies, memory counters and bus
// utilization (per level, for finite-hierarchy machines).
type Report = stats.Report

// LevelSpec configures one shared cache level of a finite memory
// hierarchy; attach levels to a Machine with Machine.WithHierarchy. The
// default Machine (empty hierarchy) runs the paper's infinite
// flat-latency L2.
type LevelSpec = mem.LevelSpec

// LevelStats is one shared level's counter snapshot (Report.MemLevels).
type LevelStats = mem.LevelStats

// SharedL2 returns a LevelSpec for a finite shared L2 with the given
// capacity and associativity and Figure-2-flavoured defaults (32-byte
// lines, 16 MSHRs, 16-cycle array access, 16-byte/cycle memory bus).
func SharedL2(sizeBytes, assoc int) LevelSpec { return config.SharedL2(sizeBytes, assoc) }

// Benchmark is a synthetic workload model (one of the ten SPEC FP95
// equivalents, or a custom definition built from StreamSpec and Kernel).
type Benchmark = workload.Benchmark

// StreamSpec describes one array access stream of a custom Benchmark.
type StreamSpec = workload.StreamSpec

// Kernel is one loop nest of a custom Benchmark.
type Kernel = workload.Kernel

// IntLoadSpec configures a Kernel's integer (index/gather) loads.
type IntLoadSpec = workload.IntLoadSpec

// CatalogEntry describes one curated workload: name, kind, provenance,
// footprint and mix shape (see Catalog).
type CatalogEntry = workload.CatalogEntry

// Catalog returns the curated workload catalog, built-ins first in the
// paper's order. `dae-trace list` renders the same entries.
func Catalog() []CatalogEntry { return workload.Catalog() }

// CatalogByName returns the named catalog entry.
func CatalogByName(name string) (CatalogEntry, error) { return workload.CatalogByName(name) }

// Speculation parameterizes the speculative-DAE extension (speculative
// access-slice loads, squash penalties and loss-of-decoupling events);
// attach it to a Machine with Machine.WithSpeculation.
type Speculation = config.Speculation

// DefaultSquashCycles is the squash refetch penalty applied when
// Speculation.SquashCycles is zero.
const DefaultSquashCycles = config.DefaultSquashCycles

// FetchPolicy selects the fetch thread-choice policy.
type FetchPolicy = config.FetchPolicy

// Fetch policies.
const (
	FetchICOUNT     = config.FetchICOUNT
	FetchRoundRobin = config.FetchRoundRobin
)

// Figure2 returns the paper's Section-3 multithreaded decoupled machine
// (Figure 2 parameters) with the given number of hardware contexts.
func Figure2(threads int) Machine { return config.Figure2(threads) }

// Section2 returns the paper's Section-2 single-threaded machine: 4-way
// issue from 4 shared general-purpose FUs, 2-port L1, with queue and
// register-file sizes scaling proportionally to the L2 latency.
func Section2() Machine { return config.Section2() }

// Benchmarks returns the names of the ten built-in SPEC FP95 workload
// models, in the paper's order.
func Benchmarks() []string { return workload.Names() }

// BenchmarkByName returns the named built-in workload model.
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// RunOpts controls a simulation run's instruction budget.
type RunOpts struct {
	// WarmupInsts is the cache/pipeline warm-up window (graduated
	// instructions, machine-wide total) excluded from the measurement.
	// Zero applies DefaultWarmup.
	WarmupInsts int64
	// MeasureInsts is the measurement window (graduated instructions,
	// machine-wide total). Zero applies DefaultMeasure.
	MeasureInsts int64
	// Seed perturbs workload randomness (branch outcomes); runs with the
	// same seed are bit-identical.
	Seed uint64
	// SegmentLen overrides the benchmark rotation length for mixes.
	SegmentLen int64
	// MaxCycles caps the run as a deadlock guard (0 = a large default).
	MaxCycles int64
}

// Default instruction budgets. The paper simulates 100M-instruction
// windows; these defaults keep interactive runs fast while remaining in
// steady state — raise them for publication-grade numbers.
const (
	DefaultWarmup  = runner.DefaultWarmup
	DefaultMeasure = runner.DefaultMeasure
)
