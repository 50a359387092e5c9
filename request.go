package daesim

import (
	"fmt"
	"path/filepath"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/traceio"
	"repro/internal/workload"
)

// WorkloadKind selects how a Request's instruction streams are built.
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
	// WorkloadTrace replays an ingested trace file: a container exported
	// by `dae-trace export` (or an imported external trace) feeds one
	// stream per context, streams replicating modulo the context count
	// with per-context address relocation when the shapes differ.
	WorkloadTrace WorkloadKind = "trace"
)

// TraceRef locates the trace file of a WorkloadTrace request. The
// reference is what hashes: the hash names the result of replaying
// whatever the path holds, so replacing file content behind an unchanged
// path reuses the stale cache entry.
type TraceRef struct {
	// Path is the trace file location.
	Path string `json:"path"`
	// Format names the on-disk format ("container", "legacy", "bin",
	// "text"); empty — the canonical spelling of "auto" — sniffs the
	// magic bytes.
	Format string `json:"format,omitempty"`
}

// Workload is the serializable description of a Request's instruction
// streams. An empty Kind normalizes to WorkloadMix.
type Workload struct {
	Kind WorkloadKind `json:"kind"`
	// Bench names the built-in benchmark for WorkloadBench.
	Bench string `json:"bench,omitempty"`
	// Custom is the benchmark model for WorkloadCustom.
	Custom *Benchmark `json:"custom,omitempty"`
	// Trace locates the trace file for WorkloadTrace (nil otherwise; the
	// omitempty keeps every generator-workload request hash pinned).
	Trace *TraceRef `json:"trace,omitempty"`
	// SegmentLen overrides the mix rotation length for WorkloadMix
	// (0 = the default).
	SegmentLen int64 `json:"segmentLen,omitempty"`
	// Seed perturbs the workload's data-dependent randomness; runs with
	// the same Request (seed included) are bit-identical.
	Seed uint64 `json:"seed,omitempty"`
}

// Execution modes a Request can ask for (Budget.Mode).
const (
	// ModeExact is full detailed simulation (the default; an empty mode
	// normalizes to it, and "exact" spelled out hashes identically).
	ModeExact = "exact"
	// ModeAdaptive runs the exact driver. It keeps its own canonical
	// form, and so its own hash, which keeps cached adaptive results
	// addressable.
	ModeAdaptive = "adaptive"
	// ModeSampled is SMARTS-style systematic sampling: an IPC *estimate*
	// with a 95% confidence interval in Report.Sampled, at a fraction of
	// the detailed cost.
	ModeSampled = "sampled"
)

// Sampling parameterizes ModeSampled. Zero fields normalize to the
// simulator's documented defaults, spelled out — so a request relying on
// defaults hashes identically to one writing them explicitly, and a
// cached sampled result always records the exact schedule it ran.
type Sampling struct {
	// PeriodInsts is the sampling period in instructions.
	PeriodInsts int64 `json:"periodInsts,omitempty"`
	// UnitInsts is the measured unit length.
	UnitInsts int64 `json:"unitInsts,omitempty"`
	// WarmupInsts is the detailed warm-up before each unit.
	WarmupInsts int64 `json:"warmupInsts,omitempty"`
}

// Budget is a Request's instruction budget in machine-wide totals.
type Budget struct {
	// WarmupInsts graduates before statistics reset (0 = DefaultWarmup).
	WarmupInsts int64 `json:"warmupInsts"`
	// MeasureInsts is the measurement window (0 = DefaultMeasure). In
	// sampled mode it is the total instruction budget the sampling
	// schedule covers.
	MeasureInsts int64 `json:"measureInsts"`
	// MaxCycles caps the run as a deadlock guard (0 = a large default).
	MaxCycles int64 `json:"maxCycles,omitempty"`
	// Mode selects the execution mode: ModeExact (default), ModeAdaptive
	// or ModeSampled. Omitted — and normalized away for "exact" — so
	// every pre-mode Request hashes exactly as it always did.
	Mode string `json:"mode,omitempty"`
	// Sampling parameterizes ModeSampled; it must be nil otherwise.
	Sampling *Sampling `json:"sampling,omitempty"`
}

// Request is the canonical, JSON-serializable description of one
// simulation: a machine configuration, a workload, and an instruction
// budget. Everything a run's result depends on is in these fields —
// which is what makes Requests content-addressable (Hash) and their
// results cacheable and shareable between clients. Label is the one
// exception: a human-readable name used in errors, progress events and
// cache-entry metadata, deliberately excluded from the hash.
type Request struct {
	Label    string   `json:"label,omitempty"`
	Machine  Machine  `json:"machine"`
	Workload Workload `json:"workload"`
	Budget   Budget   `json:"budget"`
}

// MixRequest describes the paper's Section-3 mixed workload on machine m.
func MixRequest(m Machine, opts RunOpts) Request {
	return Request{
		Machine:  m,
		Workload: Workload{Kind: WorkloadMix, Seed: opts.Seed, SegmentLen: opts.SegmentLen},
		Budget:   budgetFrom(opts),
	}.Normalized()
}

// BenchmarkRequest describes one built-in benchmark on machine m.
func BenchmarkRequest(name string, m Machine, opts RunOpts) Request {
	return Request{
		Machine:  m,
		Workload: Workload{Kind: WorkloadBench, Bench: name, Seed: opts.Seed},
		Budget:   budgetFrom(opts),
	}.Normalized()
}

// CustomRequest describes a caller-defined benchmark model on machine m.
func CustomRequest(b Benchmark, m Machine, opts RunOpts) Request {
	return Request{
		Machine:  m,
		Workload: Workload{Kind: WorkloadCustom, Custom: &b, Seed: opts.Seed},
		Budget:   budgetFrom(opts),
	}.Normalized()
}

// TraceRequest describes the replay of a trace file on machine m. An
// empty format sniffs the file's magic bytes.
func TraceRequest(path, format string, m Machine, opts RunOpts) Request {
	return Request{
		Machine:  m,
		Workload: Workload{Kind: WorkloadTrace, Trace: &TraceRef{Path: path, Format: format}},
		Budget:   budgetFrom(opts),
	}.Normalized()
}

func budgetFrom(opts RunOpts) Budget {
	return Budget{
		WarmupInsts:  opts.WarmupInsts,
		MeasureInsts: opts.MeasureInsts,
		MaxCycles:    opts.MaxCycles,
	}
}

// Normalized returns the Request with defaults resolved: an empty
// workload kind becomes WorkloadMix and zero budgets become the
// documented defaults. Hash and the Engine normalize implicitly, so a
// Request relying on defaults and one spelling them out name the same
// result; negative fields are never "fixed" here — Validate rejects
// them.
func (r Request) Normalized() Request {
	if r.Workload.Kind == "" {
		r.Workload.Kind = WorkloadMix
	}
	if r.Budget.WarmupInsts == 0 {
		r.Budget.WarmupInsts = DefaultWarmup
	}
	if r.Budget.MeasureInsts == 0 {
		r.Budget.MeasureInsts = DefaultMeasure
	}
	// Mode canonicalization: exact is the zero value ("exact" spelled out
	// folds to it, pinning pre-mode request hashes), and sampled requests
	// get their schedule spelled out in full so their hashes never depend
	// on which simulator version's defaults were compiled in.
	if r.Budget.Mode == ModeExact {
		r.Budget.Mode = ""
	}
	if r.Budget.Mode == ModeSampled {
		s := sim.Sampling{}
		if r.Budget.Sampling != nil {
			s = sim.Sampling{
				PeriodInsts: r.Budget.Sampling.PeriodInsts,
				UnitInsts:   r.Budget.Sampling.UnitInsts,
				WarmupInsts: r.Budget.Sampling.WarmupInsts,
			}
		}
		s = s.WithDefaults()
		r.Budget.Sampling = &Sampling{
			PeriodInsts: s.PeriodInsts,
			UnitInsts:   s.UnitInsts,
			WarmupInsts: s.WarmupInsts,
		}
	}
	// Memory-hierarchy canonicalization: an empty-but-non-nil Hierarchy
	// (a JSON "Hierarchy":[] round-trip) is the default flat model, and
	// under a real hierarchy the flat L2 latency is meaningless — zero
	// it so a Figure2-derived machine with levels attached by hand
	// hashes identically to one built with Machine.WithHierarchy.
	if len(r.Machine.Mem.Hierarchy) == 0 {
		r.Machine.Mem.Hierarchy = nil
	} else {
		r.Machine.Mem.L2Latency = 0
	}
	// Cores canonicalization: one core IS the single-core machine, so an
	// explicit Cores=1 hashes (and caches) identically to the default 0.
	if r.Machine.Cores == 1 {
		r.Machine.Cores = 0
	}
	// Speculation canonicalization: the all-zero block is "off" and folds
	// to the canonical nil, and an active block's zero squash penalty is
	// spelled out (DefaultSquashCycles) so a request relying on the
	// default hashes identically to one writing it. The input's block is
	// never mutated — requests are values.
	if s := r.Machine.Spec; s != nil {
		switch {
		case *s == (config.Speculation{}):
			r.Machine.Spec = nil
		case s.SpecLoadFrac > 0 && s.SquashCycles == 0:
			cp := *s
			cp.SquashCycles = config.DefaultSquashCycles
			r.Machine.Spec = &cp
		}
	}
	// Trace canonicalization: "auto" spelled out folds to the empty
	// string, and the path is lexically cleaned, so trivially different
	// spellings of the same reference share one hash (and cache entry).
	if t := r.Workload.Trace; t != nil {
		cp := *t
		if cp.Format == string(traceio.FormatAuto) {
			cp.Format = ""
		}
		if cp.Path != "" { // Clean("") is "."; keep "" so Validate rejects it
			cp.Path = filepath.Clean(cp.Path)
		}
		if cp != *t {
			r.Workload.Trace = &cp
		}
	}
	return r
}

// Validate checks the Request up front, before any simulation state is
// built. Every failure wraps one of the package's typed sentinels:
// ErrInvalidRequest (malformed budgets or workload), ErrUnknownBenchmark
// (bad benchmark name), or ErrInvalidConfig (bad Machine).
func (r Request) Validate() error {
	n := r.Normalized()
	invalid := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidRequest, fmt.Sprintf(format, args...))
	}
	switch {
	case n.Budget.WarmupInsts < 0:
		return invalid("negative warm-up budget %d", n.Budget.WarmupInsts)
	case n.Budget.MeasureInsts < 0:
		return invalid("negative measurement budget %d", n.Budget.MeasureInsts)
	case n.Budget.MaxCycles < 0:
		return invalid("negative cycle cap %d", n.Budget.MaxCycles)
	case n.Workload.SegmentLen < 0:
		return invalid("negative mix segment length %d", n.Workload.SegmentLen)
	}
	// Execution mode. Normalization already folded "exact" to "" and
	// spelled out sampled schedules, so only the canonical forms remain.
	switch n.Budget.Mode {
	case "", ModeAdaptive:
		if n.Budget.Sampling != nil {
			return invalid("sampling parameters require sampled mode")
		}
	case ModeSampled:
		s := n.Budget.Sampling
		switch {
		case s.PeriodInsts <= 0 || s.UnitInsts <= 0 || s.WarmupInsts < 0:
			return invalid("non-positive sampling parameters (period=%d unit=%d warmup=%d)",
				s.PeriodInsts, s.UnitInsts, s.WarmupInsts)
		case s.UnitInsts+s.WarmupInsts > s.PeriodInsts:
			return invalid("sampling unit+warmup (%d+%d) exceed the period (%d)",
				s.UnitInsts, s.WarmupInsts, s.PeriodInsts)
		}
	default:
		return invalid("unknown execution mode %q", n.Budget.Mode)
	}
	// Stray cross-field content is rejected rather than ignored: every
	// field is part of the content hash, so a bench request carrying a
	// leftover SegmentLen (say) would hash — and cache — apart from the
	// canonical spelling of the same run.
	if n.Workload.Kind != WorkloadTrace && n.Workload.Trace != nil {
		return invalid("trace reference applies only to trace workloads")
	}
	switch n.Workload.Kind {
	case WorkloadMix:
		if n.Workload.Bench != "" || n.Workload.Custom != nil {
			return invalid("mix workload must not name a benchmark")
		}
	case WorkloadBench:
		if n.Workload.Custom != nil {
			return invalid("bench workload must not carry a custom model")
		}
		if n.Workload.SegmentLen != 0 {
			return invalid("segment length applies only to mix workloads")
		}
		if _, err := workload.ByName(n.Workload.Bench); err != nil {
			return fmt.Errorf("daesim: %w", err)
		}
	case WorkloadCustom:
		if n.Workload.Bench != "" {
			return invalid("custom workload must not also name a built-in benchmark")
		}
		if n.Workload.SegmentLen != 0 {
			return invalid("segment length applies only to mix workloads")
		}
		if n.Workload.Custom == nil {
			return invalid("custom workload without a benchmark model")
		}
		if err := n.Workload.Custom.Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrInvalidRequest, err)
		}
	case WorkloadTrace:
		if n.Workload.Bench != "" || n.Workload.Custom != nil {
			return invalid("trace workload must not also name a benchmark")
		}
		if n.Workload.SegmentLen != 0 {
			return invalid("segment length applies only to mix workloads")
		}
		if n.Workload.Seed != 0 {
			// A replay has no data-dependent randomness to perturb; the
			// stray seed would hash the same run apart.
			return invalid("seed applies only to generator workloads")
		}
		if n.Workload.Trace == nil || n.Workload.Trace.Path == "" {
			return invalid("trace workload without a trace path")
		}
		if _, err := traceio.ParseFormat(n.Workload.Trace.Format); err != nil {
			return fmt.Errorf("%w: %w", ErrInvalidRequest, err)
		}
	default:
		return invalid("unknown workload kind %q", n.Workload.Kind)
	}
	if err := n.Machine.Validate(); err != nil {
		return fmt.Errorf("daesim: %w", err)
	}
	return nil
}

// Hash returns the Request's canonical content hash: a hex SHA-256 of
// the normalized (machine, workload, budget) triple plus the result
// cache's schema version. The hash identifies the run's *result* —
// Label is excluded, and it is the same hash the sweep runner's on-disk
// cache files are named by, so a Request can address results computed by
// dae-sweep and vice versa.
func (r Request) Hash() string {
	return r.Normalized().job().Hash()
}

// job bridges the public Request to the runner's job description. The
// mapping is 1:1 by construction, which is what keeps Request.Hash equal
// to the runner's job hash (asserted by tests).
func (r Request) job() runner.Job {
	return runner.Job{
		Key:     r.label(),
		Machine: r.Machine,
		Workload: runner.Workload{
			Kind:       runner.WorkloadKind(r.Workload.Kind),
			Bench:      r.Workload.Bench,
			Custom:     r.Workload.Custom,
			Trace:      r.Workload.Trace.toRunner(),
			SegmentLen: r.Workload.SegmentLen,
			Seed:       r.Workload.Seed,
		},
		Budget: runner.Budget{
			WarmupInsts:  r.Budget.WarmupInsts,
			MeasureInsts: r.Budget.MeasureInsts,
			MaxCycles:    r.Budget.MaxCycles,
			Mode:         sim.Mode(r.Budget.Mode),
			Sampling:     r.Budget.Sampling.toSim(),
		},
	}
}

// toRunner converts the serializable trace reference to the runner's.
func (t *TraceRef) toRunner() *runner.TraceRef {
	if t == nil {
		return nil
	}
	return &runner.TraceRef{Path: t.Path, Format: t.Format}
}

// toSim converts the serializable sampling schedule to the simulator's.
func (s *Sampling) toSim() *sim.Sampling {
	if s == nil {
		return nil
	}
	return &sim.Sampling{
		PeriodInsts: s.PeriodInsts,
		UnitInsts:   s.UnitInsts,
		WarmupInsts: s.WarmupInsts,
	}
}

// label returns the request's display name, deriving one from the
// configuration when no Label was set.
func (r Request) label() string {
	if r.Label != "" {
		return r.Label
	}
	what := "mix"
	switch r.Workload.Kind {
	case WorkloadBench:
		what = r.Workload.Bench
	case WorkloadCustom:
		what = "custom"
		if r.Workload.Custom != nil && r.Workload.Custom.Name != "" {
			what = r.Workload.Custom.Name
		}
	case WorkloadTrace:
		what = "trace"
		if r.Workload.Trace != nil {
			what = "trace:" + filepath.Base(r.Workload.Trace.Path)
		}
	}
	cores := ""
	if r.Machine.CoreCount() > 1 {
		cores = fmt.Sprintf("cores=%d ", r.Machine.CoreCount())
	}
	if h := r.Machine.Mem.Hierarchy; len(h) > 0 {
		return fmt.Sprintf("%s %sthreads=%d l2size=%d", what, cores, r.Machine.Threads, h[0].Cache.SizeBytes)
	}
	return fmt.Sprintf("%s %sthreads=%d L2=%d", what, cores, r.Machine.Threads, r.Machine.Mem.L2Latency)
}
