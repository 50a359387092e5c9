package sim

import (
	"context"

	"repro/internal/core"
)

// runner holds the state one Run invocation threads through its windows.
// Window boundaries are in aggregate graduated instructions across all
// cores (the budget is for the machine, not per core), matching how
// runner.Job provisions WarmupPerThread × TotalContexts.
type runner struct {
	ctx       context.Context
	opts      Options
	m         *core.CMP
	maxCycles int64
	every     int64
	// polls counts scheduler steps for amortized cancellation checks.
	polls int64
	// completed clears when the run hits the cycle cap.
	completed bool
}

func newRunner(ctx context.Context, opts Options, m *core.CMP) *runner {
	r := &runner{ctx: ctx, opts: opts, m: m, completed: true}
	r.maxCycles = opts.MaxCycles
	if r.maxCycles <= 0 {
		r.maxCycles = DefaultMaxCycles
	}
	r.every = opts.ProgressEvery
	if r.every <= 0 {
		r.every = DefaultProgressEvery
	}
	return r
}

func (r *runner) snapshot(phase string, target int64) Snapshot {
	return Snapshot{
		Phase:       phase,
		Graduated:   r.m.Graduated(),
		TargetInsts: target,
		Cycles:      r.m.Core(0).Collector().Cycles,
		TotalCycles: r.m.Now(),
	}
}

// window advances the machine while more() holds and the sources are
// live, honouring the cycle cap, amortized cancellation and the progress
// cadence. target only labels the snapshots.
func (r *runner) window(phase string, target int64, more func() bool) error {
	nextSnap := r.every
	for more() && !r.m.Done() {
		if r.m.Now() >= r.maxCycles {
			r.completed = false
			break
		}
		if r.polls++; r.polls&cancelPollMask == 0 {
			if err := r.ctx.Err(); err != nil {
				return err
			}
		}
		if r.opts.OnProgress != nil && r.m.Graduated() >= nextSnap {
			r.opts.OnProgress(r.snapshot(phase, target))
			nextSnap = r.m.Graduated() + r.every
		}
		// Tick and Step leave identical states, and the loop reads only
		// state that is frozen during a skip (graduation counts, Done, the
		// cycle cap the skip is clamped to), so both step functions take
		// the same path through every window boundary.
		if r.opts.Stepped {
			r.m.Tick()
		} else {
			r.m.Step(r.maxCycles)
		}
	}
	return nil
}

// runDetailed is the exact run: warm-up window, stats reset,
// measurement window, report.
func (r *runner) runDetailed() (Result, error) {
	m, opts := r.m, r.opts

	// Warm-up window.
	err := r.window(PhaseWarmup, opts.WarmupInsts, func() bool {
		return m.Graduated() < opts.WarmupInsts
	})
	if err != nil {
		return Result{}, err
	}
	// Reset measurement state; machine state (caches, queues, in-flight
	// instructions) carries over, which is the point of warming up.
	m.ResetStats()

	// Measurement window.
	err = r.window(PhaseMeasure, opts.MeasureInsts, func() bool {
		return opts.MeasureInsts <= 0 || m.Graduated() < opts.MeasureInsts
	})
	if err != nil {
		return Result{}, err
	}
	if opts.OnProgress != nil {
		// Window-boundary snapshot: the final measurement counts.
		opts.OnProgress(r.snapshot(PhaseMeasure, opts.MeasureInsts))
	}

	return Result{Report: m.Report(), Completed: r.completed, TotalCycles: m.Now()}, nil
}
