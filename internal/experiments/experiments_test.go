package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/workload"
)

// The experiment tests normally run with QuickBudget (tens of thousands
// of instructions per run) — enough to exercise every code path and the
// robust qualitative invariants, far too little for figure-quality
// numbers. With -short they drop to ShortBudget: every sweep still runs
// its full grid through the runner, but only the structural assertions
// apply (the qualitative ones need QuickBudget's steadier numbers). The
// headline reproduction numbers live in EXPERIMENTS.md and the
// root-level benchmarks.
//
// All tests share one runner, so sweeps that revisit a point another
// test already simulated (the CSV tests re-run whole figures) are served
// from the result cache.
var sweepRunner = func() *runner.Runner {
	r, err := runner.New(runner.Options{})
	if err != nil {
		panic(err)
	}
	return r
}()

// QuickBudget is sized for tests.
func QuickBudget() Budget {
	return Budget{WarmupPerThread: 20_000, MeasurePerThread: 60_000}
}

// testBudget returns the sweep budget for the current test mode, wired
// to the shared runner.
func testBudget() Budget {
	b := QuickBudget()
	if testing.Short() {
		b = ShortBudget()
	}
	b.Runner = sweepRunner
	return b
}

// quant reports whether the paper's quantitative invariants should be
// asserted (they need at least QuickBudget).
func quant() bool { return !testing.Short() }

// mustRun runs a figure at the test budget.
func mustRun(t *testing.T, f *Figure) *Result {
	t.Helper()
	r, err := f.Run(testBudget())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// tables renders every panel of a result.
func tables(r *Result) []string {
	var out []string
	for _, p := range r.Panels {
		out = append(out, r.Table(p.View))
	}
	return out
}

func TestFig1Structure(t *testing.T) {
	r := mustRun(t, Find("1"))
	benchmarks := workload.Names()
	if len(benchmarks) != 10 || len(r.Rows) != 10*len(PaperLatencies) || len(PaperLatencies) != 6 {
		t.Fatalf("grid shape: %d rows for %d benchmarks × %d latencies", len(r.Rows), len(benchmarks), len(PaperLatencies))
	}
	for _, row := range r.Rows {
		if row["ipc"].(float64) <= 0 {
			t.Errorf("%s L2=%d: non-positive IPC", row["benchmark"], row["l2"])
		}
	}
	if quant() {
		// Every Figure-1 value below is read at L2 = 256.
		at := func(col, bench string) float64 { return r.Float(col, "benchmark", bench, "l2", 256) }
		// fpppp has the worst perceived FP latency at 256 (Fig 1-a).
		for _, name := range []string{"tomcatv", "swim", "mgrid", "applu", "apsi"} {
			if at("perceived_fp", "fpppp") <= at("perceived_fp", name) {
				t.Errorf("fpppp perceived FP (%.1f) not above %s (%.1f)",
					at("perceived_fp", "fpppp"), name, at("perceived_fp", name))
			}
		}
		// The gather codes dominate perceived integer latency (Fig 1-b).
		for _, gather := range []string{"su2cor", "wave5", "turb3d", "fpppp"} {
			if v := at("perceived_int", gather); v < 10 {
				t.Errorf("%s perceived int latency %.1f too small at 256", gather, v)
			}
		}
		for _, regular := range []string{"tomcatv", "swim", "mgrid"} {
			if v := at("perceived_int", regular); v > 10 {
				t.Errorf("%s perceived int latency %.1f unexpectedly high", regular, v)
			}
		}
		// fpppp has a near-zero miss ratio; hydro2d/swim are tall (Fig 1-c).
		if v := at("load_miss", "fpppp"); v > 0.03 {
			t.Errorf("fpppp load miss %.3f too high", v)
		}
		if at("load_miss", "hydro2d") < 2*at("load_miss", "mgrid") {
			t.Errorf("hydro2d (%.3f) not well above mgrid (%.3f)",
				at("load_miss", "hydro2d"), at("load_miss", "mgrid"))
		}
		// The degraded trio loses the most IPC at 256 (Fig 1-d).
		for _, bad := range []string{"su2cor", "hydro2d", "wave5"} {
			for _, good := range []string{"mgrid", "applu", "turb3d"} {
				if at("ipc_loss", bad) > at("ipc_loss", good) {
					t.Errorf("%s (%.2f) does not degrade more than %s (%.2f)",
						bad, at("ipc_loss", bad), good, at("ipc_loss", good))
				}
			}
		}
	}
	// Tables render without panicking and mention every benchmark.
	for _, table := range tables(r) {
		for _, b := range benchmarks {
			if !strings.Contains(table, b) {
				t.Errorf("table missing %s:\n%s", b, table)
			}
		}
	}
}

func TestFig3Structure(t *testing.T) {
	r := mustRun(t, Find("3"))
	if len(r.Rows) != 2*len(Fig3Threads) || len(Fig3Threads) != 6 {
		t.Fatalf("axis shape: %d rows for %d thread counts", len(r.Rows), len(Fig3Threads))
	}
	ipc := func(threads int) float64 { return r.Float("ipc", "threads", threads) }
	for _, t2 := range Fig3Threads {
		if ipc(t2) <= 0 {
			t.Errorf("threads=%d: non-positive IPC", t2)
		}
	}
	if quant() {
		// Multithreading raises throughput substantially from 1 to 3 threads
		// and the curve flattens beyond 4 (paper: 2.31x, ~flat after 4).
		if s := ipc(3) / ipc(1); s < 1.6 {
			t.Errorf("3-thread speedup %.2f too small", s)
		}
		if ipc(4) < ipc(3) {
			t.Errorf("IPC dropped from 3 to 4 threads: %.2f -> %.2f", ipc(3), ipc(4))
		}
		// With one thread the EP wastes more slots on FU latency than on
		// memory (the paper's central single-thread observation).
		fu, mem := r.Float("wait_fu", "threads", 1, "unit", "EP"), r.Float("wait_mem", "threads", 1, "unit", "EP")
		if fu <= mem {
			t.Errorf("1-thread EP not FU-bound: fu=%.3f mem=%.3f", fu, mem)
		}
		// AP utilization grows monotonically in threads.
		useful := r.Floats("useful", "unit", "AP")
		for i := 1; i < len(useful); i++ {
			if useful[i]+1e-9 < useful[i-1]-0.05 {
				t.Errorf("AP utilization regressed at %d threads", Fig3Threads[i])
			}
		}
	}
	if !strings.Contains(r.Table(r.Panels[0].View), "threads") {
		t.Error("table missing header")
	}
}

func TestFig4Structure(t *testing.T) {
	r, err := Fig4(testBudget())
	if err != nil {
		t.Fatal(err)
	}
	if len(Fig4Configs) != 8 || len(r.Rows) != 8*len(PaperLatencies) {
		t.Fatalf("grid shape: %d rows for %d configs × %d latencies", len(r.Rows), len(Fig4Configs), len(PaperLatencies))
	}
	for _, row := range r.Rows {
		if row["ipc"].(float64) <= 0 {
			t.Errorf("%dT dec=%v L2=%d: non-positive IPC", row["threads"], row["decoupled"], row["l2"])
		}
	}
	at := func(col string, threads int, decoupled bool, lat int64) float64 {
		return r.Float(col, "threads", threads, "decoupled", decoupled, "l2", lat)
	}
	if quant() {
		// Decoupled configurations lose far less IPC from 1→32 cycles than
		// non-decoupled ones (paper: <4% vs >23%).
		for threads := 1; threads <= 4; threads++ {
			decLoss, nonLoss := at("ipc_loss", threads, true, 32), at("ipc_loss", threads, false, 32)
			// Losses are negative; decoupled must lose less (be closer to 0).
			if decLoss < nonLoss {
				t.Errorf("%dT: decoupled loss %.1f%% worse than non-decoupled %.1f%%",
					threads, 100*decLoss, 100*nonLoss)
			}
		}
		// Perceived latency: decoupled stays low, non-decoupled grows with
		// the L2 latency.
		decP, nonP := at("perceived", 4, true, 256), at("perceived", 4, false, 256)
		if decP > nonP/4 {
			t.Errorf("4T perceived at 256: decoupled %.1f vs non-decoupled %.1f — gap too small", decP, nonP)
		}
		// Multithreading raises absolute IPC at every latency.
		for _, lat := range []int64{1, 64} {
			one, four := at("ipc", 1, true, lat), at("ipc", 4, true, lat)
			if four <= one {
				t.Errorf("4T IPC (%.2f) not above 1T (%.2f) at L2=%d", four, one, lat)
			}
		}
	}
	for _, table := range tables(r) {
		if !strings.Contains(table, "decoupled") {
			t.Error("table missing config labels")
		}
	}
}

func TestFig5Structure(t *testing.T) {
	r := mustRun(t, Find("5"))
	if len(Fig5ThreadsShort) != 7 || len(Fig5ThreadsLong) != 16 {
		t.Fatalf("axis shape: %d short, %d long", len(Fig5ThreadsShort), len(Fig5ThreadsLong))
	}
	curve := func(col string, l2 int, decoupled bool) []float64 {
		return r.Floats(col, "l2", l2, "decoupled", decoupled)
	}
	ipc64Dec, ipc64Non := curve("ipc", 64, true), curve("ipc", 64, false)
	if len(curve("ipc", 16, true)) != 7 || len(ipc64Dec) != 16 || len(ipc64Non) != 16 {
		t.Fatalf("curve lengths: %d at L2=16, %d/%d at L2=64",
			len(curve("ipc", 16, true)), len(ipc64Dec), len(ipc64Non))
	}
	for i, threads := range Fig5ThreadsLong {
		if ipc64Dec[i] <= 0 || ipc64Non[i] <= 0 {
			t.Errorf("threads=%d: non-positive L2=64 IPC", threads)
		}
	}
	if quant() {
		// The decoupled machine reaches near-peak with fewer threads than the
		// non-decoupled machine at L2=16.
		decPeak := PeakThreads(Fig5ThreadsShort, curve("ipc", 16, true), 0.05)
		nonPeak := PeakThreads(Fig5ThreadsShort, curve("ipc", 16, false), 0.05)
		if decPeak >= nonPeak {
			t.Errorf("peak threads: decoupled %d, non-decoupled %d — decoupling should need fewer", decPeak, nonPeak)
		}
		// At L2=64, the decoupled machine beats the non-decoupled one at
		// every matched thread count.
		for i, threads := range Fig5ThreadsLong {
			if ipc64Dec[i] < ipc64Non[i] {
				t.Errorf("L2=64 at %d threads: decoupled %.2f below non-decoupled %.2f",
					threads, ipc64Dec[i], ipc64Non[i])
			}
		}
		// Non-decoupled bus utilization grows with thread count at L2=64.
		bus := curve("bus_util", 64, false)
		if bus[len(bus)-1] < bus[3] {
			t.Error("non-decoupled bus utilization did not grow with threads")
		}
	}
	if !strings.Contains(r.Table(r.Panels[0].View), "bus64") {
		t.Error("table missing bus columns")
	}
}

func TestPeakThreads(t *testing.T) {
	threads := []int{1, 2, 3, 4}
	ipc := []float64{2, 5.8, 6.0, 6.05}
	if got := PeakThreads(threads, ipc, 0.05); got != 2 {
		t.Fatalf("PeakThreads = %d, want 2 (within 5%% of peak)", got)
	}
	if got := PeakThreads(threads, ipc, 0.0001); got != 4 {
		t.Fatalf("strict PeakThreads = %d, want 4", got)
	}
}

func TestAblationsRun(t *testing.T) {
	for _, a := range []struct {
		key  string
		rows int
	}{
		{"a1", 5}, // unit widths
		{"a2", 2}, // fetch policy
		{"a3", 3}, // associativity
		{"a4", 2}, // forwarding
		{"a5", 6}, // memory
		{"a6", 2}, // scaling
	} {
		r, err := Find(a.key).Run(testBudget())
		if err != nil {
			t.Errorf("%s: %v", a.key, err)
			continue
		}
		if len(r.Rows) != a.rows {
			t.Errorf("%s: %d rows, want %d", a.key, len(r.Rows), a.rows)
		}
		for _, row := range r.Rows {
			if row["ipc"].(float64) <= 0 {
				t.Errorf("%s [%s]: non-positive IPC", a.key, row["config"])
			}
		}
		if !strings.Contains(r.Table(r.Panels[0].View), "IPC") {
			t.Errorf("%s: table malformed", a.key)
		}
	}
}

func TestFormatTableAlignment(t *testing.T) {
	out := formatTable("T", []string{"a", "long-header"}, [][]string{
		{"x", "1"},
		{"yyyy", "22"},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("table has %d lines", len(lines))
	}
	if len(lines[1]) != len(lines[2]) {
		t.Error("separator width mismatch")
	}
}

// TestSweepAggregatesAllErrors pins the semantics that replaced the old
// parallel() helper: a sweep with several failing points reports every
// failure, not just the first.
func TestSweepAggregatesAllErrors(t *testing.T) {
	b := ShortBudget()
	badA := b.mixJob("bad-a", config.Machine{}) // fails validation
	badB := b.benchJob("bad-b", config.Figure2(1), "no-such-benchmark")
	_, err := b.run([]runner.Job{b.mixJob("ok", config.Figure2(1)), badA, badB}, false)
	if err == nil {
		t.Fatal("sweep with failing jobs returned nil error")
	}
	var be *runner.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("sweep error is %T, want *runner.BatchError", err)
	}
	if len(be.Errors) != 2 {
		t.Fatalf("sweep reported %d errors, want 2: %v", len(be.Errors), err)
	}
	for _, want := range []string{"bad-a", "bad-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated sweep error missing %q:\n%v", want, err)
		}
	}
}

// TestFigSweepsHitSharedCache verifies the cross-figure reuse the runner
// exists for: re-running a figure through the same runner simulates
// nothing new, and fig3's thread axis is a subset of fig5's L2=16 curve.
func TestFigSweepsHitSharedCache(t *testing.T) {
	r, err := runner.New(runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := ShortBudget()
	b.Runner = r

	first, err := Find("3").Run(b)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := r.Stats()
	if afterFirst.Simulated == 0 {
		t.Fatal("first sweep simulated nothing")
	}
	second, err := Find("3").Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Simulated; got != afterFirst.Simulated {
		t.Fatalf("re-run simulated %d new points, want 0", got-afterFirst.Simulated)
	}
	firstIPC, secondIPC := first.Floats("ipc", "unit", "AP"), second.Floats("ipc", "unit", "AP")
	for i := range firstIPC {
		if firstIPC[i] != secondIPC[i] {
			t.Fatalf("cached fig3 IPC differs at %d threads", Fig3Threads[i])
		}
	}

	// Fig5's L2=16 decoupled curve revisits fig3's six points (same
	// machine, workload and budget), so a shared runner skips them.
	before := r.Stats()
	f5, err := Find("5").Run(b)
	if err != nil {
		t.Fatal(err)
	}
	delta := r.Stats()
	newPoints := delta.Simulated - before.Simulated
	total := int64(len(f5.Rows))
	if newPoints != total-int64(len(Fig3Threads)) {
		t.Errorf("fig5 simulated %d of %d points after fig3; want %d shared",
			newPoints, total, len(Fig3Threads))
	}
	ipc16Dec := f5.Floats("ipc", "l2", 16, "decoupled", true)
	for i, threads := range Fig3Threads {
		if ipc16Dec[i] != firstIPC[i] {
			t.Errorf("shared point threads=%d: fig5 %.4f != fig3 %.4f",
				threads, ipc16Dec[i], firstIPC[i])
		}
	}
}

func TestInterferenceStructure(t *testing.T) {
	// The trimmed grid keeps the quantitative invariants (the capacity
	// extremes, where the interference signal lives) at a fraction of
	// the canonical grid's cost; the canonical axes are exercised by the
	// -fig i1 CLI path and the determinism gate.
	sizes := []int{64 << 10, 1 << 20}
	threads := []int{1, 2, 4, 6}
	r := mustRun(t, InterferenceGrid(sizes, threads))
	if len(r.Rows) != len(sizes)*len(threads) {
		t.Fatalf("grid has %d points, want %dx%d", len(r.Rows), len(sizes), len(threads))
	}
	at := func(col string, si, ti int) float64 {
		return r.Float(col, "l2_bytes", sizes[si], "threads", threads[ti])
	}
	for si := range sizes {
		for ti := range threads {
			if at("ipc", si, ti) <= 0 {
				t.Errorf("L2=%d t=%d: non-positive IPC", sizes[si], threads[ti])
			}
			if m := at("l2_miss", si, ti); m < 0 || m > 1 {
				t.Errorf("L2=%d t=%d: miss ratio %f out of range", sizes[si], threads[ti], m)
			}
		}
	}
	for _, want := range []string{"L2 miss", "64KB", "1024KB", "mem-bus"} {
		if !strings.Contains(r.Table(r.Panels[0].View), want) {
			t.Errorf("table missing %q", want)
		}
	}
	if quant() {
		small, large := 0, 1
		lastT := len(threads) - 1
		miss := func(si, ti int) float64 { return at("l2_miss", si, ti) }
		// One context cannot interfere with itself: at a single thread
		// the L2 capacity barely matters (both runs are compulsory-miss
		// dominated over this budget).
		if d := miss(small, 0) - miss(large, 0); d > 0.1 || d < -0.1 {
			t.Errorf("1-thread miss ratios differ by %.3f across capacities (%.3f vs %.3f)",
				d, miss(small, 0), miss(large, 0))
		}
		// The interference signature: at six contexts the small L2's
		// per-thread miss ratio is far above the large one's.
		gap := miss(small, lastT) - miss(large, lastT)
		if gap < 0.2 {
			t.Errorf("6-thread capacity gap %.3f, want > 0.2 (small %.3f, large %.3f)",
				gap, miss(small, lastT), miss(large, lastT))
		}
		// At the small capacity the miss ratio climbs as contexts are
		// added (from 2 contexts on: the 1-thread point is cold-start
		// dominated); at the large one it never climbs comparably.
		for ti := 2; ti <= lastT; ti++ {
			if miss(small, ti) <= miss(small, ti-1) {
				t.Errorf("small L2 miss ratio not rising: t=%d %.3f <= t=%d %.3f",
					threads[ti], miss(small, ti), threads[ti-1], miss(small, ti-1))
			}
		}
		if rise := miss(large, lastT) - miss(large, 1); rise > 0.1 {
			t.Errorf("large L2 miss ratio rose %.3f from 2 to %d contexts, want flat",
				rise, threads[lastT])
		}
		// Interference costs throughput: the roomy L2 outruns the tiny
		// one at full occupancy.
		if at("ipc", large, lastT) <= at("ipc", small, lastT) {
			t.Errorf("6-thread IPC %.2f (1MB) not above %.2f (64KB)",
				at("ipc", large, lastT), at("ipc", small, lastT))
		}
		// Contention shows on the memory bus too.
		if at("mem_bus_util", small, lastT) <= at("mem_bus_util", large, lastT) {
			t.Errorf("6-thread memory-bus utilization %.2f (64KB) not above %.2f (1MB)",
				at("mem_bus_util", small, lastT), at("mem_bus_util", large, lastT))
		}
	}
}
