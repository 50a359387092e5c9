// Package sim is the simulation front-end: it builds the machine — a
// core.CMP, one core for the paper's machine or several — from a
// configuration and per-context instruction sources, runs a warm-up
// window (the paper skips each benchmark's start-up phase), resets the
// statistics, runs the measurement window, and produces the final
// report, whose shape CMP.Report decides.
//
// Two execution modes cover the speed/fidelity lattice (DESIGN.md §10),
// both driven by one serial loop:
//
//   - exact (the default): every cycle of the measurement is simulated in
//     detail, fast-forwarding over provably idle stretches via the event
//     calendar. Bit-identical to cycle-by-cycle stepping (Options.Stepped).
//   - sampled: SMARTS-style systematic sampling — short detailed units
//     spread over the instruction budget, separated by functional warp
//     gaps (architectural state only) and detailed re-warm windows. An
//     estimate, not an exact result: the report carries the per-unit mean
//     IPC and its 95% confidence interval in Report.Sampled.
package sim

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Mode selects how a run advances the machine.
type Mode string

// Execution modes. The zero value is exact execution, so existing
// callers (and serialized requests) are unchanged.
const (
	// ModeExact is full detailed simulation with calendar fast-forward.
	ModeExact Mode = ""
	// ModeSampled is SMARTS-style systematic sampling: estimative, with
	// confidence intervals in Report.Sampled.
	ModeSampled Mode = "sampled"
)

// Sampling parameterizes ModeSampled: every PeriodInsts instructions, one
// detailed unit of UnitInsts is measured after a detailed warm-up of
// WarmupInsts; the rest of the period is functionally warped. Its JSON
// form is the sampling block of a daesim Request's budget.
type Sampling struct {
	// PeriodInsts is the sampling period (0 = DefaultSamplingPeriod).
	PeriodInsts int64 `json:"periodInsts,omitempty"`
	// UnitInsts is the measured unit length (0 = DefaultSamplingUnit).
	UnitInsts int64 `json:"unitInsts,omitempty"`
	// WarmupInsts is the detailed warm-up run before each unit
	// (0 = DefaultSamplingWarmup; it cannot be disabled — warming is what
	// bounds the cold-pipeline bias).
	WarmupInsts int64 `json:"warmupInsts,omitempty"`
}

// Default sampling parameters: 2k-instruction units every 197k
// instructions with a 4k detailed re-warm — a ~3% detailed duty cycle, in
// the regime SMARTS showed keeps IPC error in the low percents for
// steady-state workloads. The non-round period does not escape the
// built-in mix's own periodicity. Each thread rotates through ten 40k
// segments, so its stream repeats every 400k instructions, and 197k is
// close to half that cycle: a one-context run samples a slowly drifting
// pair of phases. On `dae-sim -threads 1 -l2 16 -measure 10000000
// -seed 1` the exact IPC is 2.938; the default period reads 2.769
// ±0.372 (-5.8%), and a 200k period, which puts every unit in the same
// phase, reads 3.513 ±0.002. ROADMAP.md's sampled-mode item replaces the
// fixed gaps with jittered unit placement.
const (
	DefaultSamplingPeriod = 197_000
	DefaultSamplingUnit   = 2_000
	DefaultSamplingWarmup = 4_000
)

// WithDefaults resolves zero fields to the documented defaults.
func (s Sampling) WithDefaults() Sampling {
	if s.PeriodInsts == 0 {
		s.PeriodInsts = DefaultSamplingPeriod
	}
	if s.UnitInsts == 0 {
		s.UnitInsts = DefaultSamplingUnit
	}
	if s.WarmupInsts == 0 {
		s.WarmupInsts = DefaultSamplingWarmup
	}
	return s
}

// Validate checks the resolved sampling parameters (zero fields take the
// defaults, so only a negative one is non-positive). It is the one rule
// for a valid schedule: the runner's job validator defers to it, and its
// messages are the ones a dae-serve 400 carries.
func (s Sampling) Validate() error {
	s = s.WithDefaults()
	switch {
	case s.PeriodInsts < 0 || s.UnitInsts < 0 || s.WarmupInsts < 0:
		return fmt.Errorf("non-positive sampling parameters (period=%d unit=%d warmup=%d)",
			s.PeriodInsts, s.UnitInsts, s.WarmupInsts)
	case s.UnitInsts+s.WarmupInsts > s.PeriodInsts:
		return fmt.Errorf("sampling unit+warmup (%d+%d) exceed the period (%d)",
			s.UnitInsts, s.WarmupInsts, s.PeriodInsts)
	}
	return nil
}

// Options configures one simulation run.
type Options struct {
	// Machine is the processor configuration.
	Machine config.Machine
	// Sources supply one instruction stream per thread.
	Sources []trace.Reader
	// WarmupInsts is the number of graduated instructions to run before
	// statistics are reset (cache warm-up / benchmark start-up skip).
	WarmupInsts int64
	// MeasureInsts is the number of graduated instructions in the
	// measurement window. Zero measures until the sources drain (exact
	// mode only; sampled mode needs a finite budget). In
	// sampled mode it is the *total* instruction budget the sampling
	// schedule covers — measured, re-warmed and warped together.
	MeasureInsts int64
	// MaxCycles caps the total simulation length as a safety net;
	// zero applies DefaultMaxCycles.
	MaxCycles int64
	// Mode selects the execution mode; the zero value is exact detailed
	// simulation.
	Mode Mode
	// Sampling parameterizes ModeSampled (ignored otherwise; zero fields
	// take the documented defaults).
	Sampling Sampling
	// DisjointAddressSpaces declares that the sources give every context
	// a private address space (true for every built-in generator
	// workload; false for imported traces, whose addresses are whatever
	// was captured). With more than one core the functional warm path
	// then skips its write-invalidate broadcast — a pure optimization,
	// never part of a request hash, with results equivalent by
	// construction. One core has no remote copy to invalidate, so its
	// warm path skips the broadcast either way.
	DisjointAddressSpaces bool
	// Stepped forces cycle-by-cycle simulation, disabling the core's
	// event-calendar fast-forward over idle stretches. Results are
	// bit-identical either way (enforced by the equivalence tests);
	// stepping exists as the golden reference and for debugging. In
	// ModeSampled it steps the detailed phases.
	Stepped bool
	// OnProgress, when set, receives a Snapshot roughly every
	// ProgressEvery graduated instructions (and once at each window
	// boundary). The callback observes simulation state but never
	// mutates it, so enabling progress cannot change results; keep it
	// fast — it runs on the simulation goroutine.
	OnProgress func(Snapshot)
	// ProgressEvery is the snapshot cadence in graduated instructions
	// (<= 0 applies DefaultProgressEvery when OnProgress is set).
	ProgressEvery int64
}

// DefaultMaxCycles bounds runaway simulations (deadlock guard).
const DefaultMaxCycles = 2_000_000_000

// DefaultProgressEvery is the default snapshot cadence.
const DefaultProgressEvery = 100_000

// cancelPollMask amortizes context-cancellation polling: the run loop
// checks ctx once every (mask+1) scheduler steps. At a few microseconds
// per step, cancellation latency stays far under a millisecond of wall
// time while the check costs nothing measurable.
const cancelPollMask = 1<<10 - 1

// Phase names a run window in progress snapshots.
const (
	PhaseWarmup  = "warmup"
	PhaseMeasure = "measure"
)

// Snapshot is a point-in-time progress report of a running simulation.
type Snapshot struct {
	// Phase is the current window (PhaseWarmup or PhaseMeasure).
	Phase string
	// Graduated counts instructions retired in the current window.
	Graduated int64
	// TargetInsts is the window's instruction budget (0 = run to drain).
	TargetInsts int64
	// Cycles counts cycles in the current window.
	Cycles int64
	// TotalCycles is the absolute simulated time including warm-up.
	TotalCycles int64
}

// Result is a finished run.
type Result struct {
	// Report is the measurement-window statistics snapshot.
	Report stats.Report
	// Completed is true when the run reached its measurement target (or
	// drained its sources); false when it hit the cycle cap.
	Completed bool
	// TotalCycles counts all simulated cycles including warm-up.
	TotalCycles int64
}

// Run executes one simulation. Cancelling ctx aborts the run promptly
// (the loop polls the context every few hundred scheduler steps) and
// returns ctx's error; cancellation never produces a partial Result.
func Run(ctx context.Context, opts Options) (Result, error) {
	switch opts.Mode {
	case ModeExact, ModeSampled:
	default:
		return Result{}, fmt.Errorf("sim: unknown execution mode %q", opts.Mode)
	}
	if opts.Mode == ModeSampled {
		if err := opts.Sampling.Validate(); err != nil {
			return Result{}, fmt.Errorf("sim: %w", err)
		}
		if opts.MeasureInsts <= 0 {
			return Result{}, fmt.Errorf("sim: sampled mode needs a positive instruction budget")
		}
	}
	m, err := core.NewCMP(opts.Machine, opts.Sources)
	if err != nil {
		return Result{}, err
	}
	m.Interconnect().SetDisjointAddressSpaces(opts.DisjointAddressSpaces)
	r := newRunner(ctx, opts, m)
	if opts.Mode == ModeSampled {
		return r.runSampled()
	}
	return r.runDetailed()
}
