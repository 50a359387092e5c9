package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// schemaVersion is folded into every job hash. Bump it whenever the
// simulator's observable behaviour changes (new stats, different timing
// model), so stale on-disk cache entries stop matching instead of
// silently serving results from an older model.
const schemaVersion = 1

// ErrInvalidRequest is wrapped by every malformed run description. Its
// text names the public daesim package, which re-exports it.
var ErrInvalidRequest = errors.New("daesim: invalid request")

// WorkloadKind selects how a run's instruction streams are built.
type WorkloadKind string

// Workload kinds.
const (
	// WorkloadMix is the paper's Section-3 workload: every context runs a
	// rotated concatenation of all ten benchmarks.
	WorkloadMix WorkloadKind = "mix"
	// WorkloadBench runs one named built-in benchmark on every context,
	// each copy with a private address space and a perturbed seed.
	WorkloadBench WorkloadKind = "bench"
	// WorkloadCustom runs a caller-defined Benchmark model the same way.
	WorkloadCustom WorkloadKind = "custom"
	// WorkloadTrace replays a trace container (`dae-trace export` or
	// `import`), one stream per context, replicated modulo the context
	// count with per-context address relocation.
	WorkloadTrace WorkloadKind = "trace"
)

// TraceRef locates the trace file of a WorkloadTrace run. The reference
// is what hashes, so replacing file content behind an unchanged path
// reuses the stale cache entry.
type TraceRef struct {
	// Path is the trace file location.
	Path string `json:"path"`
	// Format is empty: the simulator replays containers only. "auto"
	// and "container", in any letter case, are older spellings of the
	// same replay and normalize to "". Any other format fails Validate;
	// `dae-trace import` converts a text trace to a container.
	Format string `json:"format,omitempty"`
}

// Workload is the serializable description of a run's instruction
// streams. Equal workloads generate identical streams, which is what
// lets the workload take part in the hash.
type Workload struct {
	// Kind selects the workload; empty normalizes to WorkloadMix.
	Kind WorkloadKind `json:"kind"`
	// Bench names the built-in benchmark for WorkloadBench.
	Bench string `json:"bench,omitempty"`
	// Custom is the benchmark model for WorkloadCustom.
	Custom *workload.Benchmark `json:"custom,omitempty"`
	// Trace locates the trace file for WorkloadTrace.
	Trace *TraceRef `json:"trace,omitempty"`
	// SegmentLen overrides the mix rotation length for WorkloadMix
	// (0 = workload.DefaultSegmentLen).
	SegmentLen int64 `json:"segmentLen,omitempty"`
	// Seed perturbs the workload's data-dependent randomness — only the
	// outcomes of loss-of-decoupling branches, so it changes nothing for
	// builtins without a LoD kernel (see workload.ReaderOpts.Seed); runs
	// with the same description (seed included) are bit-identical.
	Seed uint64 `json:"seed,omitempty"`
}

// Execution modes a Budget can ask for.
const (
	// ModeExact is full detailed simulation (the default; an empty mode
	// normalizes to it, and "exact" spelled out hashes identically).
	ModeExact = "exact"
	// ModeSampled is SMARTS-style systematic sampling: an IPC *estimate*
	// with a 95% confidence interval in Report.Sampled, at a fraction of
	// the detailed cost.
	ModeSampled = "sampled"
)

// Default instruction budgets. The paper simulates 100M-instruction
// windows; these defaults keep interactive runs fast while remaining in
// steady state — raise them for publication-grade numbers.
const (
	DefaultWarmup  = 200_000
	DefaultMeasure = 1_000_000
)

// Budget is a run's instruction budget in machine-wide totals (callers
// with per-thread budgets multiply by the thread count first, as the
// experiments package does).
type Budget struct {
	// WarmupInsts graduates before statistics reset (0 = DefaultWarmup).
	WarmupInsts int64 `json:"warmupInsts"`
	// MeasureInsts is the measurement window (0 = DefaultMeasure). In
	// sampled mode it is the total instruction budget the sampling
	// schedule covers.
	MeasureInsts int64 `json:"measureInsts"`
	// MaxCycles caps the run as a deadlock guard (0 = a large default).
	MaxCycles int64 `json:"maxCycles,omitempty"`
	// Mode selects the execution mode: ModeExact (default) or
	// ModeSampled. Omitted — and normalized away for "exact" — so
	// every pre-mode description hashes exactly as it always did.
	Mode string `json:"mode,omitempty"`
	// Sampling parameterizes ModeSampled; it must be nil otherwise.
	// Normalization spells the schedule out, so a hash never depends on
	// which simulator version's defaults were compiled in.
	Sampling *sim.Sampling `json:"sampling,omitempty"`
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

// Normalized returns the job in canonical form: defaults resolved and
// every spelling of the same run folded to one, so they hash alike.
// Negative fields are left for Validate to reject. The runner never
// normalizes a job itself: experiments jobs hash as written.
func (j Job) Normalized() Job {
	if j.Workload.Kind == "" {
		j.Workload.Kind = WorkloadMix
	}
	if j.Budget.WarmupInsts == 0 {
		j.Budget.WarmupInsts = DefaultWarmup
	}
	if j.Budget.MeasureInsts == 0 {
		j.Budget.MeasureInsts = DefaultMeasure
	}
	// Mode canonicalization: "exact" folds to the zero value, and sampled
	// runs get their schedule spelled out in full.
	if j.Budget.Mode == ModeExact {
		j.Budget.Mode = ""
	}
	if j.Budget.Mode == ModeSampled {
		var s sim.Sampling
		if j.Budget.Sampling != nil {
			s = *j.Budget.Sampling
		}
		s = s.WithDefaults()
		j.Budget.Sampling = &s
	}
	// Memory-hierarchy canonicalization: an empty-but-non-nil Hierarchy
	// (a JSON "Hierarchy":[] round-trip) is the flat model, and under a
	// real hierarchy the meaningless flat L2 latency is zeroed.
	if len(j.Machine.Mem.Hierarchy) == 0 {
		j.Machine.Mem.Hierarchy = nil
	} else {
		j.Machine.Mem.L2Latency = 0
	}
	// Cores canonicalization: one core IS the single-core machine, so an
	// explicit Cores=1 hashes (and caches) identically to the default 0.
	if j.Machine.Cores == 1 {
		j.Machine.Cores = 0
	}
	// Speculation canonicalization: the all-zero block is "off" (nil),
	// and an active block's zero squash penalty is spelled out. The
	// input's block is never mutated — descriptions are values.
	if s := j.Machine.Spec; s != nil {
		switch {
		case *s == (config.Speculation{}):
			j.Machine.Spec = nil
		case s.SpecLoadFrac > 0 && s.SquashCycles == 0:
			cp := *s
			cp.SquashCycles = config.DefaultSquashCycles
			j.Machine.Spec = &cp
		}
	}
	// Trace canonicalization: every spelling of the container format
	// folds to the empty string, and the path is lexically cleaned, so
	// trivially different spellings of the same reference share one
	// hash (and cache entry).
	if t := j.Workload.Trace; t != nil {
		cp := *t
		if strings.EqualFold(cp.Format, "auto") || strings.EqualFold(cp.Format, "container") {
			cp.Format = ""
		}
		if cp.Path != "" { // Clean("") is "."; keep "" so Validate rejects it
			cp.Path = filepath.Clean(cp.Path)
		}
		if cp != *t {
			j.Workload.Trace = &cp
		}
	}
	return j
}

// Validate checks a job in canonical form (see Job.Normalized) before
// any simulation state is built; the Key is not checked. Every failure
// wraps one typed sentinel: ErrInvalidRequest (malformed budgets or
// workload), workload.ErrUnknownBenchmark or config.ErrInvalid.
func Validate(j Job) error {
	w, b := j.Workload, j.Budget
	invalid := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidRequest, fmt.Sprintf(format, args...))
	}
	switch {
	case b.WarmupInsts < 0:
		return invalid("negative warm-up budget %d", b.WarmupInsts)
	case b.MeasureInsts < 0:
		return invalid("negative measurement budget %d", b.MeasureInsts)
	case b.MeasureInsts == 0:
		return invalid("zero measurement budget")
	case b.MaxCycles < 0:
		return invalid("negative cycle cap %d", b.MaxCycles)
	case w.SegmentLen < 0:
		return invalid("negative mix segment length %d", w.SegmentLen)
	}
	switch b.Mode {
	case "":
		if b.Sampling != nil {
			return invalid("sampling parameters require sampled mode")
		}
	case ModeSampled:
		// The runner decides only that the schedule is spelled out in
		// canonical form; sim.Sampling.Validate owns what makes one valid.
		s := b.Sampling
		switch {
		case s == nil:
			return invalid("sampled mode without sampling parameters")
		case *s != s.WithDefaults():
			return invalid("sampling parameters not in canonical form (period=%d unit=%d warmup=%d)",
				s.PeriodInsts, s.UnitInsts, s.WarmupInsts)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrInvalidRequest, err)
		}
	default:
		return invalid("unknown execution mode %q (want %s or %s)", b.Mode, ModeExact, ModeSampled)
	}
	// Stray cross-field content is rejected rather than ignored: every
	// field is part of the content hash, so a bench run carrying a
	// leftover SegmentLen (say) would hash — and cache — apart from the
	// canonical spelling of the same run.
	if w.Kind != WorkloadTrace && w.Trace != nil {
		return invalid("trace reference applies only to trace workloads")
	}
	switch w.Kind {
	case WorkloadMix:
		if w.Bench != "" || w.Custom != nil {
			return invalid("mix workload must not name a benchmark")
		}
	case WorkloadBench:
		if w.Custom != nil {
			return invalid("bench workload must not carry a custom model")
		}
		if w.SegmentLen != 0 {
			return invalid("segment length applies only to mix workloads")
		}
		if _, err := workload.ByName(w.Bench); err != nil {
			return fmt.Errorf("daesim: %w", err)
		}
	case WorkloadCustom:
		if w.Bench != "" {
			return invalid("custom workload must not also name a built-in benchmark")
		}
		if w.SegmentLen != 0 {
			return invalid("segment length applies only to mix workloads")
		}
		if w.Custom == nil {
			return invalid("custom workload without a benchmark model")
		}
		if err := w.Custom.Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrInvalidRequest, err)
		}
	case WorkloadTrace:
		if w.Bench != "" || w.Custom != nil {
			return invalid("trace workload must not also name a benchmark")
		}
		if w.SegmentLen != 0 {
			return invalid("segment length applies only to mix workloads")
		}
		if w.Seed != 0 {
			// A replay has no data-dependent randomness to perturb; the
			// stray seed would hash the same run apart.
			return invalid("seed applies only to generator workloads")
		}
		if w.Trace == nil || w.Trace.Path == "" {
			return invalid("trace workload without a trace path")
		}
		if w.Trace.Format != "" {
			return invalid("%q traces do not replay, only containers do; convert with `dae-trace import -i FILE -o FILE.dct` and replay the container", w.Trace.Format)
		}
	default:
		return invalid("unknown workload kind %q", w.Kind)
	}
	if err := j.Machine.Validate(); err != nil {
		return fmt.Errorf("daesim: %w", err)
	}
	if b.Mode == ModeSampled {
		// A sampled run drains the pipeline before every warp, so a
		// machine whose single miss (the flat L2, or DRAM plus every
		// level's hit) reaches the drain guard could only fail after
		// simulating. Clamping keeps the sum from overflowing.
		const guard = core.DrainMaxCycles
		mc := j.Machine.Mem
		miss := mc.L2Latency + mc.DRAMLatency // one of the two is zero
		for _, l := range mc.Hierarchy {
			miss = min(miss, guard) + min(l.HitLatency, guard)
		}
		if miss >= guard {
			return invalid("sampled mode: one miss takes at least %d cycles, reaching the %d-cycle drain guard", miss, guard)
		}
	}
	return nil
}

// hashable is the canonical hash input, and the one place that knows the
// hash format: the untagged field names, order and omitempty set every
// cached result has been filed under, independent of the wire tags.
// Custom, Trace, Mode and Sampling are omitempty so hashes from before
// those fields existed stay put. Field order is fixed by the definition,
// so encoding/json produces a deterministic byte stream.
type hashable struct {
	Version  int
	Machine  config.Machine
	Workload struct {
		Kind       WorkloadKind
		Bench      string
		Custom     *workload.Benchmark `json:",omitempty"`
		Trace      *hashTrace          `json:",omitempty"`
		SegmentLen int64
		Seed       uint64
	}
	Budget struct {
		WarmupInsts  int64
		MeasureInsts int64
		MaxCycles    int64
		Mode         string        `json:",omitempty"`
		Sampling     *hashSampling `json:",omitempty"`
	}
}

// hashTrace and hashSampling are TraceRef and sim.Sampling in the hash
// format (struct conversion ignores the tags).
type (
	hashTrace struct {
		Path   string
		Format string `json:",omitempty"`
	}
	hashSampling struct{ PeriodInsts, UnitInsts, WarmupInsts int64 }
)

// Hash returns the canonical content hash identifying the job's result:
// a hex SHA-256 of the (Machine, Workload, Budget) triple plus the cache
// schema version. Job.Key is deliberately excluded.
func (j Job) Hash() string {
	raw, err := json.Marshal(j.hashInput())
	if err != nil {
		// Machine/Workload/Budget are plain data; Marshal cannot fail.
		panic(fmt.Sprintf("runner: hash job %q: %v", j.Key, err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// hashInput copies the job into the hash format.
func (j Job) hashInput() hashable {
	h := hashable{Version: schemaVersion, Machine: j.Machine}
	w, b := &h.Workload, &h.Budget
	w.Kind, w.Bench, w.Custom = j.Workload.Kind, j.Workload.Bench, j.Workload.Custom
	w.Trace = (*hashTrace)(j.Workload.Trace)
	w.SegmentLen, w.Seed = j.Workload.SegmentLen, j.Workload.Seed
	b.WarmupInsts, b.MeasureInsts, b.MaxCycles = j.Budget.WarmupInsts, j.Budget.MeasureInsts, j.Budget.MaxCycles
	b.Mode, b.Sampling = j.Budget.Mode, (*hashSampling)(j.Budget.Sampling)
	return h
}

// benchSources builds one per-context reader copy of benchmark b, each
// with a private address space and a perturbed seed: on CMP machines
// cores interfere through the shared levels only, never by a stream.
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

// sources builds the per-context instruction streams of a validated job.
func (j Job) sources() ([]trace.Reader, error) {
	switch j.Workload.Kind {
	case WorkloadMix:
		return workload.MixSources(j.Machine.TotalContexts(), workload.MixOpts{
			SegmentLen: j.Workload.SegmentLen,
			Seed:       j.Workload.Seed,
		}), nil
	case WorkloadBench:
		b, err := workload.ByName(j.Workload.Bench)
		if err != nil {
			return nil, err
		}
		return j.benchSources(b), nil
	case WorkloadCustom:
		return j.benchSources(*j.Workload.Custom), nil
	default: // WorkloadTrace, the one kind Validate admits besides these
		return workload.TraceSources(j.Workload.Trace.Path, j.Machine.TotalContexts())
	}
}

// execute runs a validated job's simulation once, bypassing the cache.
// Cancelling ctx aborts it with an error wrapping ctx.Err(). onProgress,
// when non-nil, receives snapshots at the cadence snapshotEvery derives
// from the job's budget.
func (j Job) execute(ctx context.Context, onProgress func(sim.Snapshot)) (stats.Report, error) {
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
		Mode:         sim.Mode(j.Budget.Mode),
		// Every generator workload gives each context a private address
		// space (ThreadAddrOffset); an imported trace's addresses are
		// whatever was captured, so only traces withhold the promise.
		DisjointAddressSpaces: j.Workload.Kind != WorkloadTrace,
		OnProgress:            onProgress,
		ProgressEvery:         j.Budget.snapshotEvery(),
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

// snapshotEvery is the in-run snapshot cadence for a budget: about
// sixteen snapshots over warm-up plus measurement, so a tiny run still
// streams progress, capped at sim.DefaultProgressEvery so a long one
// does not flood its watchers.
func (b Budget) snapshotEvery() int64 {
	return min(max((b.WarmupInsts+b.MeasureInsts)/16, 1), sim.DefaultProgressEvery)
}
