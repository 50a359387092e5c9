package core_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cmpMachine is the canonical small CMP for these tests: cores × 2
// contexts over a 256 KB shared L2 and DRAM.
func cmpMachine(cores int) config.Machine {
	return config.Figure2(2).
		WithCores(cores).
		WithHierarchy(64, config.SharedL2(256<<10, 8))
}

func cmpSources(m config.Machine) []trace.Reader {
	return workload.MixSources(m.TotalContexts(), workload.MixOpts{})
}

func TestNewCMPValidation(t *testing.T) {
	m := cmpMachine(2)
	if _, err := core.NewCMP(m, workload.MixSources(m.Threads, workload.MixOpts{})); err == nil {
		t.Error("per-core context count accepted; NewCMP needs cores*threads sources")
	}
	if _, err := core.NewCMP(m, nil); err == nil {
		t.Error("nil sources accepted")
	}
	bad := m
	bad.Threads = 0
	if _, err := core.NewCMP(bad, cmpSources(m)); err == nil {
		t.Error("invalid machine accepted")
	}
}

// TestCMPLockstep: the cores share one clock; each Tick advances all of
// them together.
func TestCMPLockstep(t *testing.T) {
	m := cmpMachine(2)
	p, err := core.NewCMP(m, cmpSources(m))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p.Tick()
	}
	if p.Now() != 100 {
		t.Fatalf("Now() = %d after 100 ticks", p.Now())
	}
	for c := 0; c < p.Cores(); c++ {
		if got := p.Core(c).Now(); got != 100 {
			t.Fatalf("core %d clock = %d, want 100 (lockstep)", c, got)
		}
	}
	rep := p.Report()
	if rep.Cores != 2 {
		t.Fatalf("Report.Cores = %d", rep.Cores)
	}
	if len(rep.PerCoreGraduated) != 2 {
		t.Fatalf("PerCoreGraduated = %v", rep.PerCoreGraduated)
	}
	var sum int64
	for _, g := range rep.PerCoreGraduated {
		sum += g
	}
	if sum != p.Graduated() || sum != rep.Graduated {
		t.Fatalf("graduated: per-core sum %d, Graduated() %d, report %d",
			sum, p.Graduated(), rep.Graduated)
	}
}

// TestCMPOneCoreReportShape pins the paper's single-core report shape
// on a one-core CMP: no Cores, no per-core retirement, MemLevels listing
// only the levels below the L1 (the shared L2, or nothing on the flat
// model), and core 0's collector, L1 counters and bus as they are.
func TestCMPOneCoreReportShape(t *testing.T) {
	for _, m := range []config.Machine{cmpMachine(1), config.Figure2(2)} {
		p, err := core.NewCMP(m, cmpSources(m))
		if err != nil {
			t.Fatal(err)
		}
		for p.Graduated() < 5_000 {
			p.Step(1 << 50)
		}
		rep := p.Report()
		if rep.Cores != 0 || rep.PerCoreGraduated != nil {
			t.Errorf("one-core report has Cores %d, PerCoreGraduated %v", rep.Cores, rep.PerCoreGraduated)
		}
		if len(rep.MemLevels) != len(m.Mem.Hierarchy) {
			t.Errorf("MemLevels = %+v, want the %d levels below the L1", rep.MemLevels, len(m.Mem.Hierarchy))
		}
		for _, l := range rep.MemLevels {
			if strings.HasSuffix(l.Name, ".L1") {
				t.Errorf("one-core MemLevels has an L1 row %q", l.Name)
			}
		}
		ms := p.Core(0).Mem()
		if rep.Collector != *p.Core(0).Collector() || rep.Mem != ms.Stats() ||
			rep.BusUtilization != ms.Bus().Utilization(p.Now(), rep.Cycles) {
			t.Errorf("one-core report is not core 0's window: %+v", rep)
		}
	}
}

// TestCMPDeterminism: two identical multi-core runs produce byte-equal
// reports.
func TestCMPDeterminism(t *testing.T) {
	run := func() []byte {
		m := cmpMachine(2)
		p, err := core.NewCMP(m, cmpSources(m))
		if err != nil {
			t.Fatal(err)
		}
		for p.Graduated() < 20_000 && !p.Done() {
			p.Step(1 << 50)
		}
		b, err := json.Marshal(p.Report())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("CMP run not deterministic:\n%s\n%s", a, b)
	}
}

// TestCMPStepMatchesTick: fast-forwarding the whole chip is invisible —
// the stepped and skipping schedulers produce identical reports and
// clocks, for both the shared and the private hierarchy.
func TestCMPStepMatchesTick(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    config.Machine
	}{
		// One context per core: a single miss stream leaves skippable
		// stretches, so the fast path actually engages.
		{"sharedL2", config.Figure2(1).WithCores(2).
			WithHierarchy(64, config.SharedL2(256<<10, 8))},
		{"privateL2", config.Figure2(1).WithCores(2).
			WithHierarchy(64, config.SharedL2(64<<10, 8)).WithPrivateHierarchy()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const insts = 10_000
			run := func(stepped bool) (json.RawMessage, int64, int64) {
				p, err := core.NewCMP(tc.m, cmpSources(tc.m))
				if err != nil {
					t.Fatal(err)
				}
				for p.Graduated() < insts && !p.Done() {
					if stepped {
						p.Tick()
					} else {
						p.Step(1 << 50)
					}
				}
				b, err := json.Marshal(p.Report())
				if err != nil {
					t.Fatal(err)
				}
				return b, p.Now(), core.SkippedCycles(p)
			}
			fast, fastNow, skipped := run(false)
			slow, slowNow, _ := run(true)
			if string(fast) != string(slow) {
				t.Fatalf("fast-forward changed the report:\nfast:    %s\nstepped: %s", fast, slow)
			}
			if fastNow != slowNow {
				t.Fatalf("clock mismatch: fast %d, stepped %d", fastNow, slowNow)
			}
			if skipped == 0 {
				t.Error("fast-forward never skipped a cycle (test is vacuous)")
			}
		})
	}
}

// TestCMPResetStats: the measurement boundary zeroes every core's
// collector and the fabric's counters but preserves the clock.
func TestCMPResetStats(t *testing.T) {
	m := cmpMachine(2)
	p, err := core.NewCMP(m, cmpSources(m))
	if err != nil {
		t.Fatal(err)
	}
	for p.Graduated() < 5_000 && !p.Done() {
		p.Step(1 << 50)
	}
	now := p.Now()
	p.ResetStats()
	if p.Graduated() != 0 {
		t.Fatalf("Graduated() = %d after reset", p.Graduated())
	}
	if p.Now() != now {
		t.Fatalf("reset moved the clock: %d -> %d", now, p.Now())
	}
	rep := p.Report()
	for _, lv := range rep.MemLevels {
		if lv.Name == "" {
			t.Fatal("reset dropped a level name")
		}
		if lv.Accesses != 0 {
			t.Fatalf("level %s has %d accesses after reset", lv.Name, lv.Accesses)
		}
	}
	// The chip still runs after the boundary.
	for p.Graduated() < 5_000 && !p.Done() {
		p.Step(1 << 50)
	}
	if p.Graduated() < 5_000 {
		t.Fatal("CMP stalled after ResetStats")
	}
}

// TestCMPSharedLevelVisible: the report carries one entry per private L1
// plus the shared levels, and the shared L2 sees traffic from both cores.
func TestCMPSharedLevelVisible(t *testing.T) {
	m := cmpMachine(2)
	p, err := core.NewCMP(m, cmpSources(m))
	if err != nil {
		t.Fatal(err)
	}
	for p.Graduated() < 20_000 && !p.Done() {
		p.Step(1 << 50)
	}
	rep := p.Report()
	names := make(map[string]bool)
	var l2Accesses int64
	for _, lv := range rep.MemLevels {
		names[lv.Name] = true
		if lv.Name == "L2" {
			l2Accesses = lv.Accesses
		}
	}
	for _, want := range []string{"c0.L1", "c1.L1", "L2"} {
		if !names[want] {
			t.Fatalf("report levels %v missing %q", rep.MemLevels, want)
		}
	}
	if l2Accesses == 0 {
		t.Fatal("shared L2 saw no traffic")
	}
}
