package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// The CMP arm of the golden equivalence suite: multi-core runs must be
// bit-identical between cycle stepping and fast-forwarding, for the
// shared and the private hierarchy, and report one row of per-core
// counters per core.

func TestEquivalenceCMPConfigs(t *testing.T) {
	sharedL2 := func(m config.Machine) config.Machine {
		return m.WithHierarchy(64, config.SharedL2(256<<10, 8))
	}
	cases := []struct {
		name    string
		machine config.Machine
	}{
		// 2 cores × 1 context, shared L2: the minimal CMP.
		{"cmp2x1/shared", sharedL2(config.Figure2(1).WithCores(2))},
		// 2 cores × 2 contexts: SMT inside each core plus sharing below.
		{"cmp2x2/shared", sharedL2(config.Figure2(2).WithCores(2))},
		// 4 cores × 1 context over a small shared L2: heavy interference,
		// shared-MSHR contention, cross-core fill broadcasts.
		{"cmp4x1/contended", config.Figure2(1).WithCores(4).
			WithHierarchy(64, config.SharedL2(64<<10, 8))},
		// Private per-core L2s over shared DRAM.
		{"cmp2x1/private", config.Figure2(1).WithCores(2).
			WithHierarchy(64, config.SharedL2(64<<10, 8)).WithPrivateHierarchy()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n := tc.machine.TotalContexts()
			opts := Options{
				Machine:      tc.machine,
				WarmupInsts:  shortWarmup * int64(n),
				MeasureInsts: shortMeasure * int64(n),
			}
			res := runBoth(t, tc.name, opts, func() []trace.Reader {
				return mixSources(t, n, 7)
			})
			if res.Report.Cores != tc.machine.CoreCount() {
				t.Errorf("Report.Cores = %d, want %d", res.Report.Cores, tc.machine.CoreCount())
			}
			if len(res.Report.PerCoreGraduated) != tc.machine.CoreCount() {
				t.Errorf("PerCoreGraduated = %v", res.Report.PerCoreGraduated)
			}
		})
	}
}

// TestCMPRunDeterministic: the full sim.Run path (warmup, stat reset,
// measure) gives byte-identical results across repeated CMP runs.
func TestCMPRunDeterministic(t *testing.T) {
	m := config.Figure2(2).WithCores(2).
		WithHierarchy(64, config.SharedL2(256<<10, 8))
	n := m.TotalContexts()
	run := func() Result {
		res, err := Run(context.Background(), Options{
			Machine:      m,
			Sources:      mixSources(t, n, 3),
			WarmupInsts:  shortWarmup * int64(n),
			MeasureInsts: shortMeasure * int64(n),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("CMP Run not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestCMPDisjointWarmEquivalence: declaring disjoint address spaces only
// skips the functional warm path's write-invalidate broadcast, so with
// genuinely disjoint sources (every generator workload) the results must
// be byte-identical with the optimization on and off. Sampled mode is the
// interesting arm — its warp gaps drive Warm for every instruction — but
// the exact path is pinned too.
//
// One core has no remote copy to broadcast to, so its interconnect is
// disjoint whatever the workload declares; the 1-core input pins that
// its non-disjoint warm path matches the disjoint one too.
func TestCMPDisjointWarmEquivalence(t *testing.T) {
	for _, cores := range []int{2, 1} {
		m := config.Figure2(2).WithCores(cores).
			WithHierarchy(64, config.SharedL2(64<<10, 8))
		n := m.TotalContexts()
		for _, mode := range []Mode{ModeExact, ModeSampled} {
			name := "exact"
			if mode != ModeExact {
				name = string(mode)
			}
			if cores == 1 {
				name = "1core/" + name
			}
			t.Run(name, func(t *testing.T) {
				run := func(disjoint bool) Result {
					opts := Options{
						Machine:               m,
						Sources:               mixSources(t, n, 11),
						WarmupInsts:           shortWarmup * int64(n),
						MeasureInsts:          shortMeasure * int64(n) * 4,
						Mode:                  mode,
						DisjointAddressSpaces: disjoint,
					}
					if mode == ModeSampled {
						opts.Sampling = Sampling{PeriodInsts: 5_000, UnitInsts: 500, WarmupInsts: 1_000}
					}
					res, err := Run(context.Background(), opts)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				on, off := run(true), run(false)
				if !reflect.DeepEqual(on, off) {
					t.Fatalf("disjoint-warm skip changed the result:\non:  %+v\noff: %+v", on, off)
				}
			})
		}
	}
}

// TestCMPRespectsMaxCycles: the cycle cap applies to the lockstep chip
// clock.
func TestCMPRespectsMaxCycles(t *testing.T) {
	m := config.Figure2(1).WithCores(2).
		WithHierarchy(64, config.SharedL2(256<<10, 8))
	res, err := Run(context.Background(), Options{
		Machine:      m,
		Sources:      mixSources(t, m.TotalContexts(), 3),
		WarmupInsts:  0,
		MeasureInsts: 1 << 50,
		MaxCycles:    500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("run reported completion under a tiny cycle cap")
	}
	if res.TotalCycles > 500 {
		t.Errorf("TotalCycles = %d, cap 500", res.TotalCycles)
	}
}
