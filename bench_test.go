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
	"slices"
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

// runFigure regenerates the figure a dae-sweep key selects.
func runFigure(b *testing.B, key string) *experiments.Result {
	b.Helper()
	r, err := experiments.Find(key).Run(benchBudget())
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFig1a regenerates Figure 1-a (perceived FP-load miss latency
// per benchmark across L2 latencies) and reports fpppp's and tomcatv's
// 256-cycle points — the paper's outlier and a representative stream code.
func BenchmarkFig1a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runFigure(b, "1a")
		b.ReportMetric(r.Float("perceived_fp", "benchmark", "fpppp", "l2", 256), "fpppp-fp-perc@256")
		b.ReportMetric(r.Float("perceived_fp", "benchmark", "tomcatv", "l2", 256), "tomcatv-fp-perc@256")
	}
}

// BenchmarkFig1b regenerates Figure 1-b (perceived integer-load miss
// latency) and reports the gather codes' exposure.
func BenchmarkFig1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runFigure(b, "1b")
		b.ReportMetric(r.Float("perceived_int", "benchmark", "su2cor", "l2", 256), "su2cor-int-perc@256")
		b.ReportMetric(r.Float("perceived_int", "benchmark", "swim", "l2", 256), "swim-int-perc@256")
	}
}

// BenchmarkFig1c regenerates Figure 1-c (L1 miss ratios at L2=256).
func BenchmarkFig1c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runFigure(b, "1c")
		b.ReportMetric(100*r.Float("load_miss", "benchmark", "hydro2d"), "hydro2d-loadmiss-%")
		b.ReportMetric(100*r.Float("load_miss", "benchmark", "fpppp"), "fpppp-loadmiss-%")
	}
}

// BenchmarkFig1d regenerates Figure 1-d (IPC loss vs L2 latency).
func BenchmarkFig1d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runFigure(b, "1d")
		b.ReportMetric(100*r.Float("ipc_loss", "benchmark", "su2cor", "l2", 256), "su2cor-loss-%@256")
		b.ReportMetric(100*r.Float("ipc_loss", "benchmark", "applu", "l2", 256), "applu-loss-%@256")
	}
}

// BenchmarkFig3 regenerates Figure 3 (issue-slot breakdown vs threads) and
// reports the paper's headline IPCs: 2.68 at 1 thread, 6.19 at 3 threads
// (a 2.31x speedup), 6.65 at 4.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runFigure(b, "3")
		b.ReportMetric(r.Float("ipc", "threads", 1), "IPC-1T")
		b.ReportMetric(r.Float("ipc", "threads", 3), "IPC-3T")
		b.ReportMetric(r.Float("ipc", "threads", 4), "IPC-4T")
		b.ReportMetric(r.Float("ipc", "threads", 3)/r.Float("ipc", "threads", 1), "speedup-3T")
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
		b.ReportMetric(-100*r.Float("ipc_loss", "threads", 4, "decoupled", true, "l2", 32), "dec-loss-%@32")
		b.ReportMetric(-100*r.Float("ipc_loss", "threads", 4, "decoupled", false, "l2", 32), "nondec-loss-%@32")
		b.ReportMetric(r.Float("perceived", "threads", 4, "decoupled", true, "l2", 256), "dec-perceived@256")
	}
}

// BenchmarkFig5 regenerates Figure 5 (thread requirements) and reports the
// context counts each machine needs to come within 5% of its peak at
// L2=16, plus the non-decoupled bus utilization at 16 threads and L2=64.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runFigure(b, "5")
		dec := r.Floats("ipc", "l2", 16, "decoupled", true)
		non := r.Floats("ipc", "l2", 16, "decoupled", false)
		b.ReportMetric(float64(experiments.PeakThreads(experiments.Fig5ThreadsShort, dec, 0.05)), "dec-peak-threads")
		b.ReportMetric(float64(experiments.PeakThreads(experiments.Fig5ThreadsShort, non, 0.05)), "nondec-peak-threads")
		b.ReportMetric(100*r.Float("bus_util", "l2", 64, "decoupled", false, "threads", 16), "nondec-bus-%@16T")
	}
}

// BenchmarkAblationUnitWidths measures the paper's deferred design idea
// (per-unit issue widths, §3.1).
func BenchmarkAblationUnitWidths(b *testing.B) { benchAblation(b, "a1") }

// BenchmarkAblationFetchPolicy compares ICOUNT and round-robin fetch.
func BenchmarkAblationFetchPolicy(b *testing.B) { benchAblation(b, "a2") }

// BenchmarkAblationAssoc sweeps L1 associativity.
func BenchmarkAblationAssoc(b *testing.B) { benchAblation(b, "a3") }

// BenchmarkAblationForwarding toggles SAQ store→load forwarding.
func BenchmarkAblationForwarding(b *testing.B) { benchAblation(b, "a4") }

// BenchmarkAblationMemory sweeps MSHRs and bus width.
func BenchmarkAblationMemory(b *testing.B) { benchAblation(b, "a5") }

// BenchmarkAblationScaling contrasts fixed and latency-scaled buffering.
func BenchmarkAblationScaling(b *testing.B) { benchAblation(b, "a6") }

// BenchmarkAblationPolicies compares issue priorities and predictors.
func BenchmarkAblationPolicies(b *testing.B) { benchAblation(b, "a7") }

func benchAblation(b *testing.B, key string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ipc := runFigure(b, key).Floats("ipc")
		b.ReportMetric(slices.Max(ipc), "best-IPC")
		b.ReportMetric(slices.Min(ipc), "worst-IPC")
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
