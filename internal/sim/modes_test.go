package sim

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Execution-mode tests: sampled mode must be a deterministic,
// well-formed estimator.

// TestSampledReportWellFormed checks the sampled-mode contract: the
// report carries a Sampled summary with measured units, a positive IPC
// estimate, and a graduated count bounded by the detailed duty cycle.
func TestSampledReportWellFormed(t *testing.T) {
	res, err := Run(context.Background(), Options{
		Machine:      config.Figure2(1),
		Sources:      mixSources(t, 1, 0),
		WarmupInsts:  2_000,
		MeasureInsts: 400_000,
		Mode:         ModeSampled,
		Sampling:     Sampling{PeriodInsts: 20_000, UnitInsts: 1_000, WarmupInsts: 2_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Report.Sampled
	if s == nil {
		t.Fatal("sampled run carried no Sampled summary")
	}
	if s.Units < 2 {
		t.Fatalf("expected several measured units, got %d", s.Units)
	}
	if s.Mean <= 0 || s.CI < 0 {
		t.Fatalf("degenerate estimate: mean=%v ci=%v", s.Mean, s.CI)
	}
	if s.WarpedInsts <= 0 {
		t.Fatalf("expected warped instructions between units, got %d", s.WarpedInsts)
	}
	// The aggregated collector must hold only the measured units' cycles —
	// far fewer instructions than the budget the schedule covered.
	if res.Report.Graduated <= 0 || res.Report.Graduated >= 400_000/2 {
		t.Fatalf("measured-unit graduated count out of range: %d", res.Report.Graduated)
	}
}

// TestSampledByteStableAcrossGOMAXPROCS runs the same sampled simulation
// under GOMAXPROCS=1 and 4 and requires byte-identical JSON reports: the
// estimator must not depend on scheduler parallelism in any way.
func TestSampledByteStableAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) []byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := Run(context.Background(), Options{
			Machine:      config.Figure2(4),
			Sources:      mixSources(t, 4, 7),
			WarmupInsts:  2_000,
			MeasureInsts: 300_000,
			Mode:         ModeSampled,
			Sampling:     Sampling{PeriodInsts: 29_000, UnitInsts: 1_000, WarmupInsts: 2_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := run(1)
	four := run(4)
	if string(one) != string(four) {
		t.Errorf("sampled report differs across GOMAXPROCS:\n1: %s\n4: %s", one, four)
	}
}

// TestSampledDeterministicAcrossRuns runs the same sampled simulation
// twice and requires identical results.
func TestSampledDeterministicAcrossRuns(t *testing.T) {
	run := func() Result {
		res, err := Run(context.Background(), Options{
			Machine:      config.Figure2(2).WithL2Latency(256),
			Sources:      mixSources(t, 2, 3),
			WarmupInsts:  2_000,
			MeasureInsts: 250_000,
			Mode:         ModeSampled,
			Sampling:     Sampling{PeriodInsts: 23_000, UnitInsts: 1_000, WarmupInsts: 2_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sampled runs diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestModeValidation covers the mode/sampling front-door errors.
func TestModeValidation(t *testing.T) {
	base := func() Options {
		return Options{
			Machine:      config.Figure2(1),
			Sources:      mixSources(t, 1, 0),
			MeasureInsts: 10_000,
		}
	}

	bad := base()
	bad.Mode = "turbo"
	if _, err := Run(context.Background(), bad); err == nil {
		t.Error("unknown mode accepted")
	}

	noBudget := base()
	noBudget.Mode = ModeSampled
	noBudget.MeasureInsts = 0
	if _, err := Run(context.Background(), noBudget); err == nil {
		t.Error("sampled mode without an instruction budget accepted")
	}

	overlong := base()
	overlong.Mode = ModeSampled
	overlong.Sampling = Sampling{PeriodInsts: 1_000, UnitInsts: 900, WarmupInsts: 200}
	if _, err := Run(context.Background(), overlong); err == nil {
		t.Error("unit+warmup exceeding the period accepted")
	}

	negative := base()
	negative.Mode = ModeSampled
	negative.Sampling = Sampling{PeriodInsts: -5}
	if _, err := Run(context.Background(), negative); err == nil {
		t.Error("negative sampling period accepted")
	}

	// Spelling exact mode out is a Request-level synonym that
	// normalization folds away; Run knows only the zero value.
	spelled := base()
	spelled.Mode = "exact"
	if _, err := Run(context.Background(), spelled); err == nil {
		t.Error("un-normalized \"exact\" mode accepted")
	}
}

// TestSampledNoUnitReportsEmptyWindow: when the sources run dry during
// the initial warm-up no unit is measured, and the sampled report must be
// the empty window an exact run of the same request reports — none of
// the warm-up's memory counters or bus time.
func TestSampledNoUnitReportsEmptyWindow(t *testing.T) {
	swim, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		machine config.Machine
	}{
		{"flat", config.Figure2(1)},
		{"sharedL2", config.Figure2(1).WithHierarchy(64, config.SharedL2(64<<10, 8))},
		{"cmp2x1", config.Figure2(1).WithCores(2).WithHierarchy(64, config.SharedL2(64<<10, 8))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(mode Mode) stats.Report {
				t.Helper()
				srcs := make([]trace.Reader, tc.machine.TotalContexts())
				for i := range srcs {
					insts := make([]isa.Inst, 3_000)
					swim.NewReader(workload.ReaderOpts{Seed: uint64(i)}).Fill(insts)
					srcs[i] = trace.Slice(insts)
				}
				res, err := Run(context.Background(), Options{
					Machine:      tc.machine,
					Sources:      srcs,
					WarmupInsts:  5_000 * int64(len(srcs)),
					MeasureInsts: 10_000,
					Mode:         mode,
				})
				if err != nil {
					t.Fatalf("%s run: %v", mode, err)
				}
				return res.Report
			}
			exact, sampled := run(ModeExact), run(ModeSampled)
			if sampled.Cycles != 0 || sampled.Graduated != 0 {
				t.Fatalf("sampled run measured %d instructions in %d cycles; the trace should run dry in warm-up",
					sampled.Graduated, sampled.Cycles)
			}
			if sampled.Mem != exact.Mem || !reflect.DeepEqual(sampled.MemLevels, exact.MemLevels) ||
				sampled.BusUtilization != exact.BusUtilization {
				t.Errorf("sampled no-unit report differs from exact:\nsampled: %+v %+v %v\nexact:   %+v %+v %v",
					sampled.Mem, sampled.MemLevels, sampled.BusUtilization,
					exact.Mem, exact.MemLevels, exact.BusUtilization)
			}
		})
	}
}

// TestSampledFailsWhenDrainTimesOut: with an L2 latency beyond the drain
// guard, the pipeline cannot empty before a warp, and warping a
// non-empty pipeline would skip the instructions still in flight. The
// run must fail instead of returning a report.
func TestSampledFailsWhenDrainTimesOut(t *testing.T) {
	res, err := Run(context.Background(), Options{
		Machine:      config.Figure2(1).WithL2Latency(1 << 21),
		Sources:      mixSources(t, 1, 0),
		WarmupInsts:  200,
		MeasureInsts: 12_000,
		Mode:         ModeSampled,
		Sampling:     Sampling{PeriodInsts: 10_000, UnitInsts: 1_000, WarmupInsts: 1_000},
	})
	if err == nil {
		t.Fatalf("run with a timed-out drain returned a report (graduated %d), want an error", res.Report.Graduated)
	}
	if !strings.Contains(err.Error(), "drain guard") {
		t.Fatalf("error %q does not name the drain guard", err)
	}
}
