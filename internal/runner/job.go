package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traceio"
	"repro/internal/workload"
)

// schemaVersion is folded into every job hash. Bump it whenever the
// simulator's observable behaviour changes (new stats, different timing
// model), so stale on-disk cache entries stop matching instead of
// silently serving results from an older model.
const schemaVersion = 1

// WorkloadKind selects how a job's instruction sources are built.
type WorkloadKind string

const (
	// KindMix runs the paper's Section-3 workload: every context executes
	// a rotated concatenation of all ten benchmarks.
	KindMix WorkloadKind = "mix"
	// KindBench runs one named benchmark on every context, each copy with
	// a private address space and a perturbed seed.
	KindBench WorkloadKind = "bench"
	// KindCustom runs a caller-defined benchmark model (Workload.Custom)
	// on every context, like KindBench runs a built-in.
	KindCustom WorkloadKind = "custom"
	// KindTrace replays an ingested trace file (Workload.Trace): each
	// context replays one of the file's streams via workload.TraceSources.
	KindTrace WorkloadKind = "trace"
)

// TraceRef locates a trace file for KindTrace. The *reference* is what
// hashes — the job hash names the result of replaying whatever the path
// holds, so replacing a file's content behind an unchanged path reuses
// the stale cache entry (the same contract file-driven simulators
// conventionally accept; dae-sweep's cache can be cleared per file).
type TraceRef struct {
	// Path is the trace file location.
	Path string
	// Format is "", "auto" or "container": only containers replay
	// (traceio.CheckReplayFormat). It stays in the hash, so the spelled-out
	// "container" keeps its own cache entries.
	Format string `json:",omitempty"`
}

// Workload is the canonical description of a job's instruction streams.
// It is part of the job hash, so two workloads with equal fields are
// assumed to generate identical streams (which the workload package
// guarantees for a given seed).
type Workload struct {
	Kind WorkloadKind
	// Bench names the benchmark for KindBench.
	Bench string
	// Custom is the full benchmark model for KindCustom. It must be nil
	// for the other kinds (the omitempty keeps mix/bench job hashes
	// identical to the pre-custom cache schema, so existing on-disk
	// entries stay valid).
	Custom *workload.Benchmark `json:",omitempty"`
	// Trace locates the trace file for KindTrace. It must be nil for the
	// other kinds (omitempty keeps every generator-workload job hash —
	// and on-disk cache entry — identical to the pre-trace schema).
	Trace *TraceRef `json:",omitempty"`
	// SegmentLen overrides the mix rotation length for KindMix (0 =
	// workload.DefaultSegmentLen).
	SegmentLen int64
	// Seed perturbs the workload's data-dependent randomness.
	Seed uint64
}

// MixWorkload describes the all-benchmark mix.
func MixWorkload(seed uint64, segmentLen int64) Workload {
	return Workload{Kind: KindMix, Seed: seed, SegmentLen: segmentLen}
}

// BenchWorkload describes a single named benchmark.
func BenchWorkload(name string, seed uint64) Workload {
	return Workload{Kind: KindBench, Bench: name, Seed: seed}
}

// Budget is a job's instruction budget in machine-wide totals (callers
// with per-thread budgets multiply by the thread count first, as the
// experiments package does).
type Budget struct {
	// WarmupInsts graduates before statistics reset.
	WarmupInsts int64
	// MeasureInsts is the measurement window.
	MeasureInsts int64
	// MaxCycles caps the run (0 = sim.DefaultMaxCycles).
	MaxCycles int64
	// Mode selects the execution mode (sim.Mode; empty = exact). Both
	// new fields are omitempty so every pre-existing exact-mode job
	// hashes exactly as it did before modes existed, keeping on-disk
	// cache entries valid. "adaptive" is an alias that runs the exact
	// driver but keeps its own hash, so cache entries written under that
	// name stay valid.
	Mode sim.Mode `json:",omitempty"`
	// Sampling parameterizes sampled mode. Callers must spell the
	// parameters out (daesim.Request.Normalized resolves the defaults),
	// so a job's hash never depends on which sim version's defaults were
	// compiled in. Nil for exact jobs.
	Sampling *sim.Sampling `json:",omitempty"`
}

// Job describes one simulation point. Jobs are pure data: everything a
// run depends on is in the Machine, Workload and Budget fields, which is
// what makes result caching sound.
type Job struct {
	// Key is a human-readable label used in errors and progress lines
	// (e.g. "fig1 swim L2=64"). It is NOT part of the hash: two figures
	// that sweep the same point share one cache entry.
	Key      string
	Machine  config.Machine
	Workload Workload
	Budget   Budget
}

// hashable is the canonical hash input. Field order is fixed by the
// struct definition, so encoding/json produces a deterministic byte
// stream for a given value.
type hashable struct {
	Version  int
	Machine  config.Machine
	Workload Workload
	Budget   Budget
}

// Hash returns the canonical content hash identifying the job's result:
// a hex SHA-256 of the (Machine, Workload, Budget) triple plus the cache
// schema version. Job.Key is deliberately excluded.
func (j Job) Hash() string {
	b, err := json.Marshal(hashable{
		Version:  schemaVersion,
		Machine:  j.Machine,
		Workload: j.Workload,
		Budget:   j.Budget,
	})
	if err != nil {
		// Machine/Workload/Budget are plain data; Marshal cannot fail.
		panic(fmt.Sprintf("runner: hash job %q: %v", j.Key, err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Validate checks the job before it is scheduled.
func (j Job) Validate() error {
	switch j.Workload.Kind {
	case KindMix:
	case KindBench:
		if _, err := workload.ByName(j.Workload.Bench); err != nil {
			return fmt.Errorf("runner: job %q: %w", j.Key, err)
		}
	case KindCustom:
		if j.Workload.Custom == nil {
			return fmt.Errorf("runner: job %q: custom workload without a benchmark model", j.Key)
		}
		if err := j.Workload.Custom.Validate(); err != nil {
			return fmt.Errorf("runner: job %q: %w", j.Key, err)
		}
	case KindTrace:
		if j.Workload.Trace == nil || j.Workload.Trace.Path == "" {
			return fmt.Errorf("runner: job %q: trace workload without a trace path", j.Key)
		}
		if err := traceio.CheckReplayFormat(j.Workload.Trace.Format); err != nil {
			return fmt.Errorf("runner: job %q: %w", j.Key, err)
		}
	default:
		return fmt.Errorf("runner: job %q: unknown workload kind %q", j.Key, j.Workload.Kind)
	}
	if j.Budget.MeasureInsts <= 0 {
		return fmt.Errorf("runner: job %q: non-positive measurement budget", j.Key)
	}
	switch j.Budget.Mode {
	case sim.ModeExact, sim.ModeAdaptive:
		if j.Budget.Sampling != nil {
			return fmt.Errorf("runner: job %q: sampling parameters without sampled mode", j.Key)
		}
	case sim.ModeSampled:
		if j.Budget.Sampling == nil {
			return fmt.Errorf("runner: job %q: sampled mode without sampling parameters", j.Key)
		}
		if err := j.Budget.Sampling.Validate(); err != nil {
			return fmt.Errorf("runner: job %q: %w", j.Key, err)
		}
	default:
		return fmt.Errorf("runner: job %q: unknown execution mode %q", j.Key, j.Budget.Mode)
	}
	if err := j.Machine.Validate(); err != nil {
		return fmt.Errorf("runner: job %q: %w", j.Key, err)
	}
	return nil
}

// benchSources builds one per-context reader copy of benchmark b, each
// with a private address space and a perturbed seed. On CMP machines
// every context across every core gets its own copy (contexts are
// numbered core-major), so cores interfere through the shared levels
// only, never by sharing a stream.
func (j Job) benchSources(b workload.Benchmark) []trace.Reader {
	n := j.Machine.TotalContexts()
	srcs := make([]trace.Reader, n)
	for t := 0; t < n; t++ {
		srcs[t] = b.NewReader(workload.ReaderOpts{
			AddrOffset: workload.ThreadAddrOffset(t),
			Seed:       j.Workload.Seed + uint64(t),
		})
	}
	return srcs
}

// sources builds the per-context instruction streams.
func (j Job) sources() ([]trace.Reader, error) {
	switch j.Workload.Kind {
	case KindMix:
		return workload.MixSources(j.Machine.TotalContexts(), workload.MixOpts{
			SegmentLen: j.Workload.SegmentLen,
			Seed:       j.Workload.Seed,
		}), nil
	case KindBench:
		b, err := workload.ByName(j.Workload.Bench)
		if err != nil {
			return nil, err
		}
		return j.benchSources(b), nil
	case KindCustom:
		if j.Workload.Custom == nil {
			return nil, fmt.Errorf("custom workload without a benchmark model")
		}
		return j.benchSources(*j.Workload.Custom), nil
	case KindTrace:
		if j.Workload.Trace == nil {
			return nil, fmt.Errorf("trace workload without a trace reference")
		}
		return workload.TraceSources(j.Workload.Trace.Path, j.Machine.TotalContexts())
	default:
		return nil, fmt.Errorf("unknown workload kind %q", j.Workload.Kind)
	}
}

// Execute runs the job's simulation once, bypassing every cache tier and
// the worker pool — the uncached one-shot path behind the public
// package-level Run* wrappers. Cancelling ctx aborts the run promptly
// with an error wrapping ctx.Err(). onProgress, when non-nil, receives
// periodic in-run snapshots (every "every" graduated instructions;
// <= 0 applies the sim default).
func (j Job) Execute(ctx context.Context, onProgress func(sim.Snapshot), every int64) (stats.Report, error) {
	srcs, err := j.sources()
	if err != nil {
		return stats.Report{}, fmt.Errorf("runner: job %q: %w", j.Key, err)
	}
	o := sim.Options{
		Machine:      j.Machine,
		Sources:      srcs,
		WarmupInsts:  j.Budget.WarmupInsts,
		MeasureInsts: j.Budget.MeasureInsts,
		MaxCycles:    j.Budget.MaxCycles,
		Mode:         j.Budget.Mode,
		// Every generator workload gives each context a private address
		// space (ThreadAddrOffset); an imported trace's addresses are
		// whatever was captured, so only traces withhold the promise.
		DisjointAddressSpaces: j.Workload.Kind != KindTrace,
		OnProgress:            onProgress,
		ProgressEvery:         every,
	}
	if j.Budget.Sampling != nil {
		o.Sampling = *j.Budget.Sampling
	}
	res, err := sim.Run(ctx, o)
	if err != nil {
		return stats.Report{}, fmt.Errorf("runner: job %q: %w", j.Key, err)
	}
	if !res.Completed {
		return res.Report, fmt.Errorf("runner: job %q (threads=%d, L2=%d) hit the cycle cap",
			j.Key, j.Machine.Threads, j.Machine.Mem.L2Latency)
	}
	return res.Report, nil
}
