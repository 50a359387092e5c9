package experiments

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/sim"
)

// This file declares study S1: sampled-mode validation. For each of the
// four figure configurations it runs the same instruction budget twice —
// once in exact mode, once under SMARTS-style systematic sampling — and
// reports the sampled IPC estimate with its 95% confidence interval, the
// error against the exact result, and the wall-clock speedup. The report
// hashes of both runs are deterministic (and land in -hashfile for the CI
// determinism gate); the wall-clock columns are measured here and appear
// only in the table/CSV, never in a hash. A speedup is only measured
// when both runs simulate: when either was served from the result cache
// (another figure of the sweep already ran that exact point, or a warm
// cache directory did), the table reads "cached" and the CSV's
// wall-clock cells are empty.
//
// The quantitative claim (error inside the estimate's own CI, speedup
// ≥5× at large budgets) is asserted by the tests at QuickBudget with a
// proportionally shrunk sampling period; the committed figure uses the
// default sampling parameters.

// S1Configs is the study's machine axis: the four figure configurations
// (threads × L2 latency) the paper's evaluation revolves around.
var S1Configs = []struct {
	Name    string
	Threads int
	L2      int64
}{
	{"1T-L2_16", 1, 16},
	{"1T-L2_256", 1, 256},
	{"4T-L2_16", 4, 16},
	{"4T-L2_256", 4, 256},
}

// S1Sampled declares the study with explicit sampling parameters (zero
// fields take the defaults). Tests shrink the period so a quick budget
// still yields enough units for a meaningful confidence interval.
func S1Sampled(sp sim.Sampling) (*Figure, error) {
	sp = sp.WithDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return s1Figure(sp), nil
}

// s1Figure declares the study for resolved, valid sampling parameters.
// Each row reads two runs, exact then sampled, executed one at a time so
// each wall clock is its own: the study measures simulation speed, and
// overlapping the runs would charge each one for its neighbors' cores.
// InCI reports whether the exact IPC lies inside the estimate's own 95%
// confidence interval — the honesty check: an estimator may be wrong,
// but it must know how wrong.
func s1Figure(sp sim.Sampling) *Figure {
	exact := func(p *Point) float64 { return p.Runs[0].Report.IPC() }
	sampled := func(p *Point) float64 { return p.Runs[1].Report.Sampled.Mean }
	ci := func(p *Point) float64 { return p.Runs[1].Report.Sampled.CI }
	// wall is a run's wall clock in milliseconds, nil when either run of
	// the pair was a cache hit.
	wall := func(p *Point, i int) any {
		if p.Runs[0].Cached || p.Runs[1].Cached {
			return nil
		}
		return p.Runs[i].Wall.Seconds() * 1e3
	}
	return &Figure{
		Name:   "s1",
		serial: true,
		Panels: []Panel{{"s1", "Study S1: sampled vs exact — IPC error, confidence intervals and wall-clock speedup on the four figure configs", View{
			Title: fmt.Sprintf("Study S1: sampled vs exact — IPC error and wall-clock speedup (period=%d unit=%d warmup=%d)",
				sp.PeriodInsts, sp.UnitInsts, sp.WarmupInsts),
			Lines: [][]Cell{{
				cell("config", "config", str), cell("exact IPC", "exact_ipc", f2),
				cell("sampled IPC", "sampled_ipc", f2), cell("±95% CI", "ci", format("±%.3f")),
				cell("units", "units", str), cell("err", "err_pct", format("%.1f%%")),
				cell("in CI", "in_ci", str),
				cell("speedup", "speedup", func(v any) string {
					if v == nil {
						return "cached"
					}
					return fmt.Sprintf("%.1fx", v)
				}),
			}},
		}}},
		Columns: []Column{
			{Name: "config"},
			{Name: "threads"},
			{Name: "l2"},
			{"exact_ipc", func(p *Point) any { return exact(p) }},
			{"sampled_ipc", func(p *Point) any { return sampled(p) }},
			{"ci", func(p *Point) any { return ci(p) }},
			{"units", func(p *Point) any { return p.Runs[1].Report.Sampled.Units }},
			{"err_pct", func(p *Point) any {
				if exact(p) <= 0 {
					return 0.0
				}
				return 100 * math.Abs(sampled(p)-exact(p)) / exact(p)
			}},
			{"in_ci", func(p *Point) any { return math.Abs(sampled(p)-exact(p)) <= ci(p) }},
			{"exact_ms", func(p *Point) any { return wall(p, 0) }},
			{"sampled_ms", func(p *Point) any { return wall(p, 1) }},
			{"speedup", func(p *Point) any {
				if wall(p, 0) == nil {
					return nil
				}
				if w := p.Runs[1].Wall; w > 0 {
					return float64(p.Runs[0].Wall) / float64(w)
				}
				return 0.0
			}},
		},
		points: func(b Budget) []*Point {
			var pts []*Point
			for _, c := range S1Configs {
				m := config.Figure2(c.Threads).WithL2Latency(c.L2)
				sampledJob := b.mixJob(fmt.Sprintf("s1 %s sampled", c.Name), m)
				sampledJob.Budget.Mode = sim.ModeSampled
				spc := sp
				sampledJob.Budget.Sampling = &spc
				pts = append(pts, point(Row{"config": c.Name, "threads": c.Threads, "l2": c.L2},
					b.mixJob(fmt.Sprintf("s1 %s exact", c.Name), m), sampledJob))
			}
			return pts
		},
	}
}
