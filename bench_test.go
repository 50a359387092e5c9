package daesim

// One testing.B benchmark per figure of the paper (the paper has no
// numbered tables; Figure 2 is the parameter table, checked by the config
// tests). Each benchmark regenerates its figure's sweep at a reduced
// budget and reports the headline reproduced quantities as custom metrics,
// so `go test -bench=. -benchmem` doubles as a smoke reproduction:
//
//	BenchmarkFig3   ... IPC-1T, IPC-3T, speedup-3T
//	BenchmarkFig4   ... dec/non-dec IPC loss at L2=32
//	BenchmarkFig5   ... threads-to-peak for both machines
//
// Figure-quality sweeps (larger budgets, full tables) come from
// `go run ./cmd/dae-sweep -fig all`; EXPERIMENTS.md records those numbers.

import (
	"testing"

	"repro/internal/experiments"
)

// benchBudget trades precision for wall-clock: a few hundred thousand
// instructions per run keeps a full-figure regeneration within seconds.
func benchBudget() experiments.Budget {
	return experiments.Budget{
		WarmupPerThread:  40_000,
		MeasurePerThread: 150_000,
	}
}

// BenchmarkFig1a regenerates Figure 1-a (perceived FP-load miss latency
// per benchmark across L2 latencies) and reports fpppp's and tomcatv's
// 256-cycle points — the paper's outlier and a representative stream code.
func BenchmarkFig1a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Latencies) - 1
		b.ReportMetric(r.PerceivedFP[idxOf(b, r.Benchmarks, "fpppp")][last], "fpppp-fp-perc@256")
		b.ReportMetric(r.PerceivedFP[idxOf(b, r.Benchmarks, "tomcatv")][last], "tomcatv-fp-perc@256")
	}
}

// BenchmarkFig1b regenerates Figure 1-b (perceived integer-load miss
// latency) and reports the gather codes' exposure.
func BenchmarkFig1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Latencies) - 1
		b.ReportMetric(r.PerceivedInt[idxOf(b, r.Benchmarks, "su2cor")][last], "su2cor-int-perc@256")
		b.ReportMetric(r.PerceivedInt[idxOf(b, r.Benchmarks, "swim")][last], "swim-int-perc@256")
	}
}

// BenchmarkFig1c regenerates Figure 1-c (L1 miss ratios at L2=256).
func BenchmarkFig1c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.LoadMiss[idxOf(b, r.Benchmarks, "hydro2d")], "hydro2d-loadmiss-%")
		b.ReportMetric(100*r.LoadMiss[idxOf(b, r.Benchmarks, "fpppp")], "fpppp-loadmiss-%")
	}
}

// BenchmarkFig1d regenerates Figure 1-d (IPC loss vs L2 latency).
func BenchmarkFig1d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Latencies) - 1
		b.ReportMetric(100*r.IPCLoss[idxOf(b, r.Benchmarks, "su2cor")][last], "su2cor-loss-%@256")
		b.ReportMetric(100*r.IPCLoss[idxOf(b, r.Benchmarks, "applu")][last], "applu-loss-%@256")
	}
}

// BenchmarkFig3 regenerates Figure 3 (issue-slot breakdown vs threads) and
// reports the paper's headline IPCs: 2.68 at 1 thread, 6.19 at 3 threads
// (a 2.31x speedup), 6.65 at 4.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.IPC[0], "IPC-1T")
		b.ReportMetric(r.IPC[2], "IPC-3T")
		b.ReportMetric(r.IPC[3], "IPC-4T")
		b.ReportMetric(r.Speedup(3), "speedup-3T")
	}
}

// BenchmarkFig4 regenerates Figure 4 (latency tolerance of the eight
// configurations) and reports the 1→32-cycle IPC losses the paper quotes
// (<4% decoupled, >23% non-decoupled).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		_, _, decLoss, _ := r.At(4, true, 32)
		_, _, nonLoss, _ := r.At(4, false, 32)
		decP, _, _, _ := r.At(4, true, 256)
		b.ReportMetric(-100*decLoss, "dec-loss-%@32")
		b.ReportMetric(-100*nonLoss, "nondec-loss-%@32")
		b.ReportMetric(decP, "dec-perceived@256")
	}
}

// BenchmarkFig5 regenerates Figure 5 (thread requirements) and reports the
// context counts each machine needs to come within 5% of its peak at
// L2=16, plus the non-decoupled bus utilization at 16 threads and L2=64.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(experiments.PeakThreads(r.ThreadsShort, r.IPC16Dec, 0.05)), "dec-peak-threads")
		b.ReportMetric(float64(experiments.PeakThreads(r.ThreadsShort, r.IPC16Non, 0.05)), "nondec-peak-threads")
		b.ReportMetric(100*r.Bus64Non[len(r.Bus64Non)-1], "nondec-bus-%@16T")
	}
}

// BenchmarkAblationUnitWidths measures the paper's deferred design idea
// (per-unit issue widths, §3.1).
func BenchmarkAblationUnitWidths(b *testing.B) {
	benchAblation(b, experiments.AblationUnitWidths)
}

// BenchmarkAblationFetchPolicy compares ICOUNT and round-robin fetch.
func BenchmarkAblationFetchPolicy(b *testing.B) {
	benchAblation(b, experiments.AblationFetchPolicy)
}

// BenchmarkAblationAssoc sweeps L1 associativity.
func BenchmarkAblationAssoc(b *testing.B) {
	benchAblation(b, experiments.AblationAssoc)
}

// BenchmarkAblationForwarding toggles SAQ store→load forwarding.
func BenchmarkAblationForwarding(b *testing.B) {
	benchAblation(b, experiments.AblationForwarding)
}

// BenchmarkAblationMemory sweeps MSHRs and bus width.
func BenchmarkAblationMemory(b *testing.B) {
	benchAblation(b, experiments.AblationMemory)
}

// BenchmarkAblationScaling contrasts fixed and latency-scaled buffering.
func BenchmarkAblationScaling(b *testing.B) {
	benchAblation(b, experiments.AblationScaling)
}

// BenchmarkAblationPolicies compares issue priorities and predictors.
func BenchmarkAblationPolicies(b *testing.B) {
	benchAblation(b, experiments.AblationPolicies)
}

func benchAblation(b *testing.B, run func(experiments.Budget) (*experiments.AblationResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := run(benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		best, worst := r.Rows[0].IPC, r.Rows[0].IPC
		for _, row := range r.Rows {
			if row.IPC > best {
				best = row.IPC
			}
			if row.IPC < worst {
				worst = row.IPC
			}
		}
		b.ReportMetric(best, "best-IPC")
		b.ReportMetric(worst, "worst-IPC")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per wall-clock second) on the 4-thread mix — the figure
// sweeps' cost model.
func BenchmarkSimulatorThroughput(b *testing.B) {
	const insts = 400_000
	for i := 0; i < b.N; i++ {
		rep, err := runOnce(MixRequest(Figure2(4), RunOpts{WarmupInsts: 1, MeasureInsts: insts}))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Graduated < insts {
			b.Fatal("short run")
		}
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "sim-insts/s")
}

func idxOf(b *testing.B, names []string, name string) int {
	b.Helper()
	for i, n := range names {
		if n == name {
			return i
		}
	}
	b.Fatalf("benchmark %s missing", name)
	return -1
}
