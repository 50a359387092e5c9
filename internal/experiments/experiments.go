// Package experiments regenerates every figure in the paper's evaluation
// (Figures 1, 3, 4 and 5 — the paper has no numbered tables; Figure 2 is
// the parameter table, reproduced by config.Figure2) plus the ablation
// studies DESIGN.md calls out.
//
// Every experiment is one Figure value in the Figures registry: the
// sweep of independent simulation runs it measures, its long-form rows
// (exactly its CSV) and the table panels that view those rows. The runs
// are runner.Jobs executed by the internal/runner batch engine: they run
// concurrently on the host's cores, every run is itself single-threaded
// and seeded (so results are bit-reproducible), and points shared
// between figures — or re-run after a crash, with an on-disk cache — are
// simulated once and served from the result cache afterwards.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/runner"
)

// Budget controls the instruction budgets of every run in a sweep and
// how the sweep executes.
type Budget struct {
	// WarmupPerThread and MeasurePerThread are per-hardware-context
	// instruction counts: a run with T threads warms up T×WarmupPerThread
	// and measures T×MeasurePerThread graduated instructions.
	WarmupPerThread  int64
	MeasurePerThread int64
	// Seed perturbs the workloads.
	Seed uint64
	// Runner executes the sweep's jobs. Sharing one runner across
	// figures lets them reuse each other's points (fig3 and fig5 sweep
	// the same L2=16 thread axis) and, with a cache directory, resume
	// interrupted sweeps. When nil, each sweep uses a private in-memory
	// runner with one worker per core.
	Runner *runner.Runner
	// Ctx cancels the sweep: in-flight simulations abort promptly and
	// remaining points fail with the context's error (nil =
	// context.Background()). With a cache directory, completed points
	// are already durable, so a cancelled sweep resumes where it
	// stopped.
	Ctx context.Context
}

// DefaultBudget is sized for figure-quality sweeps: large enough for
// steady state, small enough to regenerate every figure in minutes.
func DefaultBudget() Budget {
	return Budget{WarmupPerThread: 150_000, MeasurePerThread: 500_000}
}

// ShortBudget is sized for CI (`go test -short`): every sweep still
// exercises its full grid, but with budgets too small for the paper's
// quantitative invariants — tests assert only structure in short mode.
func ShortBudget() Budget {
	return Budget{WarmupPerThread: 2_000, MeasurePerThread: 8_000}
}

// totals converts the per-thread budget into a job's machine-wide
// instruction totals.
func (b Budget) totals(threads int) runner.Budget {
	t := int64(threads)
	return runner.Budget{
		WarmupInsts:  b.WarmupPerThread * t,
		MeasureInsts: b.MeasurePerThread * t,
	}
}

// mixJob describes one simulation of the paper's per-thread benchmark
// mixes on machine m.
func (b Budget) mixJob(key string, m config.Machine) runner.Job {
	return runner.Job{
		Key:      key,
		Machine:  m,
		Workload: runner.MixWorkload(b.Seed, 0),
		Budget:   b.totals(m.TotalContexts()),
	}
}

// benchJob describes one simulation of a single named benchmark.
func (b Budget) benchJob(key string, m config.Machine, bench string) runner.Job {
	return runner.Job{
		Key:      key,
		Machine:  m,
		Workload: runner.BenchWorkload(bench, b.Seed),
		Budget:   b.totals(m.TotalContexts()),
	}
}

// run executes jobs on the budget's runner (or a private one) and
// returns their results in job order. Every job of a batch runs even
// when some fail; the returned error aggregates all failures. A serial
// sweep runs each job as its own batch, so each run's wall clock is its
// own.
func (b Budget) run(jobs []runner.Job, serial bool) ([]Run, error) {
	r := b.Runner
	if r == nil {
		var err error
		if r, err = runner.New(runner.Options{}); err != nil {
			return nil, err
		}
	}
	ctx := b.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	batches := [][]runner.Job{jobs}
	if serial {
		batches = nil
		for _, j := range jobs {
			batches = append(batches, []runner.Job{j})
		}
	}
	var runs []Run
	for _, batch := range batches {
		start := time.Now()
		results, err := r.RunContext(ctx, batch)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		for _, res := range results {
			runs = append(runs, Run{Result: res, Wall: wall})
		}
	}
	return runs, nil
}

// PaperLatencies is the L2 sweep of Figures 1 and 4.
var PaperLatencies = []int64{1, 16, 32, 64, 128, 256}

// formatTable renders a fixed-width text table: a title line, then the
// header, a dashed separator and the rows, every column right-aligned.
func formatTable(title string, header []string, rows [][]string) string {
	sep := make([]string, len(header))
	lines := append([][]string{header, sep}, rows...)
	widths := make([]int, len(header))
	for _, line := range lines {
		for i, c := range line {
			widths[i] = max(widths[i], len(c))
		}
	}
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, line := range lines {
		for i, c := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// format returns a cell formatter that prints a value with one fmt verb.
func format(verb string) func(any) string {
	return func(v any) string { return fmt.Sprintf(verb, v) }
}

var (
	str = format("%v")
	f1  = format("%.1f")
	f2  = format("%.2f")
)

// pct prints a fraction as a percentage.
func pct(v any) string { return fmt.Sprintf("%.1f%%", 100*v.(float64)) }

// kb prints a byte count in KiB.
func kb(v any) string { return fmt.Sprintf("%dKB", v.(int)>>10) }
