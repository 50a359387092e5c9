package sim

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// The sampled execution mode, after SMARTS (Wunderlich et al., ISCA'03):
// systematic sampling measures short detailed units at a fixed
// instruction period and functionally warps the gaps, so a run covering
// N instructions simulates only a few percent of them in detail. Each
// period is a triplet —
//
//	functional warp (gap) → detailed warm-up → measured unit
//
// — where the warp advances trace cursors, branch predictors and the
// cache footprint with no timing (CMP.Warp after CMP.DrainPipeline),
// the detailed warm-up re-fills the pipeline and MSHRs so the unit does
// not measure a cold restart, and the unit's statistics become one IPC
// sample. The report aggregates all measured units' counters and carries
// the sample mean and 95% confidence interval in Report.Sampled.

// sampledAgg accumulates measured-unit reports into one aggregate.
// Counters sum; the derived bus utilizations are cycle-weighted means,
// accumulated as busy-cycle totals and divided out at the end.
type sampledAgg struct {
	rep     stats.Report
	busW    float64   // Σ BusUtilization × window cycles
	levelsW []float64 // per MemLevels entry
	have    bool
}

func (a *sampledAgg) add(rep stats.Report) {
	w := float64(rep.Cycles)
	if !a.have {
		a.have = true
		a.rep = rep
		a.levelsW = make([]float64, len(rep.MemLevels))
	} else {
		a.rep.Collector.Merge(&rep.Collector)
		a.rep.Mem.Merge(rep.Mem)
		for i := range a.rep.MemLevels {
			a.rep.MemLevels[i].MergeCounters(rep.MemLevels[i])
		}
		for i, g := range rep.PerCoreGraduated {
			a.rep.PerCoreGraduated[i] += g
		}
	}
	// The explicit conversions round each product before the sum, so no
	// architecture fuses them into a multiply-add and the report bytes
	// stay the same everywhere.
	a.busW += float64(rep.BusUtilization * w)
	for i, l := range rep.MemLevels {
		a.levelsW[i] += float64(l.BusUtilization * w)
	}
}

// finish resolves the weighted utilizations and returns the aggregate.
// When no unit completed it reports an empty window of m instead — the
// report an exact run that measured nothing gives, with none of the
// last warm-up window's counters.
func (a *sampledAgg) finish(m *core.CMP) stats.Report {
	if !a.have {
		m.ResetStats()
		return m.Report()
	}
	if c := float64(a.rep.Cycles); c > 0 {
		a.rep.BusUtilization = a.busW / c
		for i := range a.rep.MemLevels {
			a.rep.MemLevels[i].BusUtilization = a.levelsW[i] / c
		}
	}
	return a.rep
}

// runSampled executes the sampling schedule over opts.MeasureInsts total
// instructions: an initial detailed warm-up (opts.WarmupInsts, like every
// other mode), then repeating measure → drain → warp → re-warm periods
// until the budget is spent or the sources drain.
func (r *runner) runSampled() (Result, error) {
	m, opts := r.m, r.opts
	sp := opts.Sampling.WithDefaults()
	gap := sp.PeriodInsts - sp.UnitInsts - sp.WarmupInsts

	// Initial detailed warm-up, identical to the other modes.
	err := r.window(PhaseWarmup, opts.WarmupInsts, func() bool {
		return m.Graduated() < opts.WarmupInsts
	})
	if err != nil {
		return Result{}, err
	}

	var (
		agg      sampledAgg
		samples  []float64
		warped   int64
		advanced int64 // instructions covered by the schedule so far
	)
	clamp := func(n int64) int64 {
		if left := opts.MeasureInsts - advanced; n > left {
			return left
		}
		return n
	}
	for r.completed && advanced < opts.MeasureInsts && !m.Done() {
		// Measured unit.
		m.ResetStats()
		unit := clamp(sp.UnitInsts)
		err := r.window(PhaseMeasure, opts.MeasureInsts, func() bool {
			return m.Graduated() < unit
		})
		if err != nil {
			return Result{}, err
		}
		rep := m.Report()
		if rep.Cycles > 0 && rep.Graduated > 0 {
			// Sample CPI, not IPC: units are (near-)equal instruction
			// counts, so the mean of per-unit CPIs is the unbiased
			// cycles-per-instruction estimate, where a mean of per-unit
			// IPCs would be Jensen-biased high whenever unit latencies
			// vary. Summarize inverts back to IPC at the end.
			samples = append(samples, float64(rep.Cycles)/float64(rep.Graduated))
			agg.add(rep)
		}
		advanced += rep.Graduated
		if advanced >= opts.MeasureInsts || m.Done() || !r.completed {
			break
		}

		// Gap: drain to a clean boundary, warp the remainder functionally.
		// Instructions graduated by the drain still advance the schedule.
		m.DrainPipeline()
		advanced += m.Graduated() - rep.Graduated
		if g := clamp(gap); g > 0 {
			w := m.Warp(g)
			warped += w
			advanced += w
		}

		// Detailed re-warm so the next unit doesn't measure the restart.
		m.ResetStats()
		warm := clamp(sp.WarmupInsts)
		err = r.window(PhaseWarmup, opts.MeasureInsts, func() bool {
			return m.Graduated() < warm
		})
		if err != nil {
			return Result{}, err
		}
		advanced += m.Graduated()
	}

	rep := agg.finish(m)
	s := stats.SummarizeCPI(samples)
	s.WarpedInsts = warped
	rep.Sampled = &s
	if opts.OnProgress != nil {
		opts.OnProgress(Snapshot{
			Phase:       PhaseMeasure,
			Graduated:   rep.Graduated,
			TargetInsts: opts.MeasureInsts,
			Cycles:      rep.Cycles,
			TotalCycles: m.Now(),
		})
	}
	return Result{Report: rep, Completed: r.completed, TotalCycles: m.Now()}, nil
}
