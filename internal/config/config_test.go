package config

import (
	"errors"
	"math"
	"testing"

	"repro/internal/branch"
	"repro/internal/mem"
)

func TestFigure2MatchesPaper(t *testing.T) {
	m := Figure2(4)
	if m.Threads != 4 || !m.Decoupled {
		t.Fatal("thread/decoupled defaults wrong")
	}
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"fetch threads", m.FetchThreads, 2},
		{"fetch width", m.FetchWidth, 8},
		{"dispatch width", m.DispatchWidth, 8},
		{"AP width", m.APWidth, 4},
		{"EP width", m.EPWidth, 4},
		{"unresolved branches", m.MaxUnresolvedBranches, 4},
		{"BHT entries", m.BHTEntries, 2048},
		{"IQ size", m.IQSize, 48},
		{"SAQ size", m.SAQSize, 32},
		{"AP regs", m.APRegs, 64},
		{"EP regs", m.EPRegs, 96},
		{"L1 ports", m.Mem.Ports, 4},
		{"MSHRs", m.Mem.MSHRs, 16},
		{"L1 size", m.Mem.L1.SizeBytes, 64 * 1024},
		{"line size", m.Mem.L1.LineBytes, 32},
		{"assoc", m.Mem.L1.Assoc, 1},
		{"bus width", m.Mem.BusBytesPerCycle, 16},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (Figure 2)", c.name, c.got, c.want)
		}
	}
	if m.APLatency != 1 || m.EPLatency != 4 {
		t.Errorf("FU latencies = (%d,%d), want (1,4)", m.APLatency, m.EPLatency)
	}
	if m.Mem.L2Latency != 16 || m.Mem.HitLatency != 1 {
		t.Errorf("cache latencies = (%d,%d), want (16,1)", m.Mem.L2Latency, m.Mem.HitLatency)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Figure2 invalid: %v", err)
	}
}

func TestSection2MatchesPaper(t *testing.T) {
	m := Section2()
	if m.Threads != 1 {
		t.Error("Section 2 machine is single threaded")
	}
	if m.SharedFUs != 4 {
		t.Errorf("shared FUs = %d, want 4 general purpose FUs", m.SharedFUs)
	}
	if m.DispatchWidth != 4 {
		t.Errorf("dispatch width = %d, want 4-way issue", m.DispatchWidth)
	}
	if m.Mem.Ports != 2 {
		t.Errorf("L1 ports = %d, want 2", m.Mem.Ports)
	}
	if !m.ScaleWithLatency {
		t.Error("Section 2 machine must scale queues with latency")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Section2 invalid: %v", err)
	}
}

func TestNonDecoupled(t *testing.T) {
	m := Figure2(2).NonDecoupled()
	if m.Decoupled {
		t.Fatal("NonDecoupled did not clear the flag")
	}
	// Everything else preserved.
	if m.IQSize != 48 || m.Threads != 2 {
		t.Fatal("NonDecoupled changed unrelated fields")
	}
}

func TestWithL2LatencyAndThreads(t *testing.T) {
	m := Figure2(1).WithL2Latency(256).WithThreads(7)
	if m.Mem.L2Latency != 256 || m.Threads != 7 {
		t.Fatal("builders did not apply")
	}
	// Original preset unchanged (value semantics).
	if Figure2(1).Mem.L2Latency != 16 {
		t.Fatal("preset mutated")
	}
}

func TestEffectiveScaling(t *testing.T) {
	m := Section2().WithL2Latency(256)
	e := m.Effective()
	// ceil(256/16) = 16.
	if e.IQSize != 48*16 {
		t.Errorf("scaled IQ = %d, want %d", e.IQSize, 48*16)
	}
	if e.SAQSize != 32*16 {
		t.Errorf("scaled SAQ = %d, want %d", e.SAQSize, 32*16)
	}
	if e.APRegs != 32+(64-32)*16 {
		t.Errorf("scaled AP regs = %d", e.APRegs)
	}
	if e.EPRegs != 32+(96-32)*16 {
		t.Errorf("scaled EP regs = %d", e.EPRegs)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("scaled machine invalid: %v", err)
	}
}

func TestEffectiveNoScalingAtBaseline(t *testing.T) {
	m := Section2() // L2 = 16 → factor 1
	e := m.Effective()
	if e.IQSize != m.IQSize || e.APRegs != m.APRegs {
		t.Fatal("baseline latency should not scale")
	}
	// Figure-2 machines never scale even at high latency.
	f := Figure2(4).WithL2Latency(256).Effective()
	if f.IQSize != 48 {
		t.Fatal("Figure2 machine scaled without ScaleWithLatency")
	}
}

func TestEffectiveScalingLowLatency(t *testing.T) {
	m := Section2().WithL2Latency(1)
	e := m.Effective()
	if e.IQSize != m.IQSize {
		t.Fatal("latency 1 should scale by factor 1")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Machine)
	}{
		{"zero threads", func(m *Machine) { m.Threads = 0 }},
		{"zero fetch threads", func(m *Machine) { m.FetchThreads = 0 }},
		{"zero fetch width", func(m *Machine) { m.FetchWidth = 0 }},
		{"small fetch buffer", func(m *Machine) { m.FetchBufSize = 1 }},
		{"zero branch limit", func(m *Machine) { m.MaxUnresolvedBranches = 0 }},
		{"non-pow2 BHT", func(m *Machine) { m.BHTEntries = 1000 }},
		{"zero dispatch", func(m *Machine) { m.DispatchWidth = 0 }},
		{"zero AP width", func(m *Machine) { m.APWidth = 0 }},
		{"zero EP width", func(m *Machine) { m.EPWidth = 0 }},
		{"negative shared FUs", func(m *Machine) { m.SharedFUs = -1 }},
		{"zero AP latency", func(m *Machine) { m.APLatency = 0 }},
		{"zero EP latency", func(m *Machine) { m.EPLatency = 0 }},
		{"zero IQ", func(m *Machine) { m.IQSize = 0 }},
		{"zero SAQ", func(m *Machine) { m.SAQSize = 0 }},
		{"zero ROB", func(m *Machine) { m.ROBSize = 0 }},
		{"AP regs too small", func(m *Machine) { m.APRegs = 32 }},
		{"EP regs too small", func(m *Machine) { m.EPRegs = 20 }},
		{"zero graduate width", func(m *Machine) { m.GraduateWidth = 0 }},
		{"bad fetch policy", func(m *Machine) { m.FetchPolicy = "lottery" }},
		{"bad mem", func(m *Machine) { m.Mem.Ports = 0 }},
	}
	for _, c := range mutations {
		m := Figure2(4)
		c.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestFetchPolicies(t *testing.T) {
	for _, p := range []FetchPolicy{FetchICOUNT, FetchRoundRobin, ""} {
		m := Figure2(2)
		m.FetchPolicy = p
		if err := m.Validate(); err != nil {
			t.Errorf("policy %q rejected: %v", p, err)
		}
	}
}

func TestMSHRsPerThreadResolved(t *testing.T) {
	m := Figure2(4)
	e := m.Effective()
	if e.Mem.MSHRs != 16*4 {
		t.Fatalf("effective MSHRs = %d, want 64 (16 per context)", e.Mem.MSHRs)
	}
	// Latency scaling multiplies the per-thread capacity too.
	m.ScaleWithLatency = true
	m = m.WithL2Latency(64) // factor 4
	if got := m.Effective().Mem.MSHRs; got != 16*4*4 {
		t.Fatalf("scaled MSHRs = %d, want 256", got)
	}
	// Fixed-total mode: MSHRsPerThread == 0 leaves Mem.MSHRs untouched.
	fixed := Figure2(4)
	fixed.MSHRsPerThread = 0
	fixed.Mem.MSHRs = 10
	if got := fixed.Effective().Mem.MSHRs; got != 10 {
		t.Fatalf("fixed MSHRs = %d, want 10", got)
	}
	// Negative is rejected.
	bad := Figure2(1)
	bad.MSHRsPerThread = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative MSHRsPerThread accepted")
	}
}

func TestIssuePolicyValidation(t *testing.T) {
	for _, p := range []IssuePolicy{IssueRoundRobin, IssueOldestFirst, ""} {
		m := Figure2(2)
		m.IssuePolicy = p
		if err := m.Validate(); err != nil {
			t.Errorf("policy %q rejected: %v", p, err)
		}
	}
	m := Figure2(2)
	m.IssuePolicy = "lifo"
	if err := m.Validate(); err == nil {
		t.Error("unknown issue policy accepted")
	}
}

func TestPredictorValidation(t *testing.T) {
	for _, k := range []string{"", "bht", "gshare", "taken", "nottaken"} {
		m := Figure2(2)
		m.Predictor = branch.Kind(k)
		if err := m.Validate(); err != nil {
			t.Errorf("predictor %q rejected: %v", k, err)
		}
	}
	m := Figure2(2)
	m.Predictor = "neural"
	if err := m.Validate(); err == nil {
		t.Error("unknown predictor accepted")
	}
}

func TestWithHierarchy(t *testing.T) {
	m := Figure2(4).WithHierarchy(64, SharedL2(512<<10, 8))
	if err := m.Validate(); err != nil {
		t.Fatalf("hierarchy machine rejected: %v", err)
	}
	if m.Mem.L2Latency != 0 {
		t.Errorf("WithHierarchy left flat L2 latency %d, want 0 (hash canonicalization)", m.Mem.L2Latency)
	}
	if m.Mem.DRAMLatency != 64 || len(m.Mem.Hierarchy) != 1 {
		t.Errorf("hierarchy not attached: %+v", m.Mem)
	}
	spec := SharedL2(512<<10, 8)
	if spec.Name != "L2" || spec.Cache.LineBytes != 32 || spec.HitLatency != 16 {
		t.Errorf("SharedL2 defaults = %+v", spec)
	}
	// The Section-2 latency-scaling rule has no flat latency to scale
	// with under a hierarchy.
	s2 := Section2()
	s2 = s2.WithHierarchy(64, SharedL2(256<<10, 4))
	if err := s2.Validate(); err == nil {
		t.Error("ScaleWithLatency with a hierarchy accepted")
	}
	// WithHierarchy copies its level slice: mutating the argument later
	// must not reach into the machine.
	levels := []mem.LevelSpec{SharedL2(256<<10, 4)}
	m2 := Figure2(1).WithHierarchy(64, levels...)
	levels[0].MSHRs = 0
	if m2.Mem.Hierarchy[0].MSHRs == 0 {
		t.Error("WithHierarchy aliased the caller's level slice")
	}
}

func TestCoresValidation(t *testing.T) {
	bad := []struct {
		name string
		mut  func(*Machine)
	}{
		{"negative cores", func(m *Machine) { m.Cores = -1 }},
		{"private hierarchy on one core", func(m *Machine) {
			m.Cores = 0
			m.Mem.PrivateHierarchy = true
		}},
		{"private hierarchy without hierarchy", func(m *Machine) {
			m.Mem.Hierarchy = nil
			m.Mem.PrivateHierarchy = true
		}},
		{"latency scaling on a CMP", func(m *Machine) { m.ScaleWithLatency = true }},
	}
	for _, c := range bad {
		m := Figure2(2).WithCores(2).WithHierarchy(64, SharedL2(256<<10, 8))
		c.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	// A CMP over the flat L2 and over a private hierarchy both validate.
	if err := Figure2(2).WithCores(2).Validate(); err != nil {
		t.Errorf("flat CMP rejected: %v", err)
	}
	m := Figure2(1).WithCores(2).WithHierarchy(64, SharedL2(64<<10, 8)).WithPrivateHierarchy()
	if err := m.Validate(); err != nil {
		t.Errorf("private-hierarchy CMP rejected: %v", err)
	}
}

func TestCoreCountAndTotalContexts(t *testing.T) {
	cases := []struct {
		cores, threads, wantCores, wantCtx int
	}{
		{0, 1, 1, 1}, // zero value: single core
		{1, 4, 1, 4}, // explicit 1 is still a single-core machine
		{2, 1, 2, 2},
		{4, 2, 4, 8},
	}
	for _, c := range cases {
		m := Figure2(c.threads).WithCores(c.cores)
		if got := m.CoreCount(); got != c.wantCores {
			t.Errorf("Cores=%d: CoreCount() = %d, want %d", c.cores, got, c.wantCores)
		}
		if got := m.TotalContexts(); got != c.wantCtx {
			t.Errorf("Cores=%d Threads=%d: TotalContexts() = %d, want %d",
				c.cores, c.threads, got, c.wantCtx)
		}
	}
}

// hugeInt is past every machine bound: 1<<40 where int is 64 bits, the
// largest int where it is 32.
const hugeInt = min(1<<40, math.MaxInt)

// TestValidateBounds: the upper bounds reject machines whose effective
// (scaled) sizes would allocate the host out of memory, and accept the
// largest machines the figures build and a machine exactly at a bound.
func TestValidateBounds(t *testing.T) {
	scaled := func(m Machine, lat int64) Machine {
		m = m.WithL2Latency(lat)
		m.ScaleWithLatency = true
		return m
	}
	cases := []struct {
		name string
		mut  func(m Machine) Machine
		ok   bool
	}{
		{"figure 5 long", func(m Machine) Machine { return m.WithThreads(16) }, true},
		{"figure 4 scaled", func(m Machine) Machine { return scaled(m, 256) }, true},
		{"section 2 at 256", func(Machine) Machine { return Section2().WithL2Latency(256) }, true},
		{"C1 4 cores", func(m Machine) Machine {
			return m.WithThreads(2).WithCores(4).WithHierarchy(64, SharedL2(1<<20, 8)).WithPrivateHierarchy()
		}, true},
		{"ROB at the bound", func(m Machine) Machine { m.ROBSize = MaxEntries; return m.WithThreads(1) }, true},

		{"huge ROB", func(m Machine) Machine { m.ROBSize = hugeInt; return m }, false},
		{"ROB past the bound", func(m Machine) Machine { m.ROBSize = MaxEntries + 1; return m }, false},
		{"huge threads", func(m Machine) Machine { return m.WithThreads(hugeInt) }, false},
		{"huge cores", func(m Machine) Machine { return m.WithCores(hugeInt) }, false},
		{"contexts past the bound", func(m Machine) Machine { return m.WithThreads(64).WithCores(8) }, false},
		{"huge scaled latency", func(m Machine) Machine { return scaled(m, 1<<40) }, false},
		{"largest scaled latency", func(m Machine) Machine { return scaled(m, math.MaxInt64) }, false},
		{"scaled ROB past the bound", func(m Machine) Machine { m.ROBSize = 8192; return scaled(m, 256) }, false},
		{"scaled MSHRs past the bound", func(m Machine) Machine {
			m.MSHRsPerThread = 2048
			return scaled(m, 256)
		}, false},
		{"in-flight total past the bound", func(m Machine) Machine {
			m.ROBSize = 1 << 15
			return m.WithThreads(64)
		}, false},
		{"huge BHT", func(m Machine) Machine { m.BHTEntries = hugeInt; return m }, false},
		{"huge L1", func(m Machine) Machine { m.Mem.L1.SizeBytes = hugeInt; return m }, false},
		{"huge L2", func(m Machine) Machine { return m.WithHierarchy(64, SharedL2(hugeInt, 8)) }, false},
		{"private L2s past the bound", func(m Machine) Machine {
			return m.WithThreads(1).WithCores(8).WithHierarchy(64, SharedL2(32<<20, 8)).WithPrivateHierarchy()
		}, false},
	}
	for _, tc := range cases {
		err := tc.mut(Figure2(4)).Validate()
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case !tc.ok && !errors.Is(err, ErrInvalid):
			t.Errorf("%s: error %v does not wrap ErrInvalid", tc.name, err)
		}
	}
}
