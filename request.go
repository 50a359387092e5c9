package daesim

import (
	"fmt"
	"path/filepath"

	"repro/internal/runner"
	"repro/internal/sim"
)

// A Request's parts are the sweep runner's own types, so Requests and
// sweep jobs share one definition, one normalizer and one validator.
type (
	// WorkloadKind selects how a Request's instruction streams are built.
	WorkloadKind = runner.WorkloadKind
	// Workload describes a Request's instruction streams; an empty Kind
	// normalizes to WorkloadMix.
	Workload = runner.Workload
	// TraceRef locates the trace file of a WorkloadTrace request.
	TraceRef = runner.TraceRef
	// Budget is a Request's instruction budget in machine-wide totals.
	Budget = runner.Budget
	// Sampling parameterizes ModeSampled; zero fields normalize to the
	// simulator's defaults, spelled out.
	Sampling = sim.Sampling
)

// Workload kinds: the paper's Section-3 mix, one built-in benchmark, a
// caller-defined Benchmark model, or the replay of a trace container.
const (
	WorkloadMix    = runner.WorkloadMix
	WorkloadBench  = runner.WorkloadBench
	WorkloadCustom = runner.WorkloadCustom
	WorkloadTrace  = runner.WorkloadTrace
)

// Execution modes a Request can ask for (Budget.Mode): exact detailed
// simulation (the default) and SMARTS-style sampling, an IPC estimate
// with a 95% confidence interval in Report.Sampled.
const (
	ModeExact   = runner.ModeExact
	ModeSampled = runner.ModeSampled
)

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
	return request(m, Workload{Kind: WorkloadMix, Seed: opts.Seed, SegmentLen: opts.SegmentLen}, opts)
}

// BenchmarkRequest describes one built-in benchmark on machine m.
func BenchmarkRequest(name string, m Machine, opts RunOpts) Request {
	return request(m, Workload{Kind: WorkloadBench, Bench: name, Seed: opts.Seed}, opts)
}

// CustomRequest describes a caller-defined benchmark model on machine m.
func CustomRequest(b Benchmark, m Machine, opts RunOpts) Request {
	return request(m, Workload{Kind: WorkloadCustom, Custom: &b, Seed: opts.Seed}, opts)
}

// TraceRequest describes the replay of the trace container at path on
// machine m.
func TraceRequest(path string, m Machine, opts RunOpts) Request {
	return request(m, Workload{Kind: WorkloadTrace, Trace: &TraceRef{Path: path}}, opts)
}

// request is the normalized Request for workload w on machine m under
// opts' budget.
func request(m Machine, w Workload, opts RunOpts) Request {
	b := Budget{WarmupInsts: opts.WarmupInsts, MeasureInsts: opts.MeasureInsts, MaxCycles: opts.MaxCycles}
	return Request{Machine: m, Workload: w, Budget: b}.Normalized()
}

// Normalized returns the Request with defaults resolved (an empty kind
// is WorkloadMix, zero budgets are DefaultWarmup and DefaultMeasure) and
// equivalent spellings folded. Hash and the Engine normalize implicitly;
// negative fields are never "fixed" here — Validate rejects them.
func (r Request) Normalized() Request {
	n := r.spec().Normalized()
	r.Machine, r.Workload, r.Budget = n.Machine, n.Workload, n.Budget
	return r
}

// Validate checks the Request up front, before any simulation state is
// built. Every failure wraps one of the package's typed sentinels:
// ErrInvalidRequest (malformed budgets or workload), ErrUnknownBenchmark
// (bad benchmark name), or ErrInvalidConfig (bad Machine).
func (r Request) Validate() error {
	return runner.Validate(r.spec().Normalized())
}

// Hash returns the Request's canonical content hash, which identifies
// the run's *result*: Label is excluded, and it is the hash the sweep
// runner's cache files are named by, so a Request can address results
// computed by dae-sweep and vice versa.
func (r Request) Hash() string {
	return r.spec().Normalized().Hash()
}

// spec is the Request as a job without the Key nothing but the Engine reads.
func (r Request) spec() runner.Job {
	return runner.Job{Machine: r.Machine, Workload: r.Workload, Budget: r.Budget}
}

// job is the Request as the runner's job, keyed by its display label.
func (r Request) job() runner.Job {
	return runner.Job{Key: r.label(), Machine: r.Machine, Workload: r.Workload, Budget: r.Budget}
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
