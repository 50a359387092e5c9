package core

// Multithreading-specific behaviour, scheduling policies, and
// adversarial/property tests for the pipeline.

import (
	"testing"
	"testing/quick"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
)

// runThreads builds a core with one trace per thread and drains it.
func runThreads(t *testing.T, m config.Machine, traces ...[]isa.Inst) machine {
	t.Helper()
	sources := make([]trace.Reader, len(traces))
	for i, tr := range traces {
		sources[i] = trace.Slice(tr)
	}
	c, err := newMachine(m.WithThreads(len(traces)), sources)
	if err != nil {
		t.Fatal(err)
	}
	if _, drained := c.Run(5_000_000); !drained {
		t.Fatal("machine did not drain")
	}
	return c
}

func TestSMTFairnessIdenticalThreads(t *testing.T) {
	// Two identical threads must finish together (round-robin sharing):
	// the drain time must be far below 2× the single-thread time.
	mk := func() []isa.Inst {
		var insts []isa.Inst
		for i := 0; i < 2000; i++ {
			insts = append(insts, fpOp(uint64(i%8*4), i%4, i%4, i%4))
			insts = append(insts, intOp(0x100, 1+(i%4), 9, 10))
		}
		return insts
	}
	single := runThreads(t, config.Figure2(1), mk())
	double := runThreads(t, config.Figure2(1), mk(), mk())
	if double.Now() > single.Now()*3/2 {
		t.Fatalf("2 threads took %d cycles vs %d for 1 — no SMT overlap", double.Now(), single.Now())
	}
}

func TestMispredictStallIsPerThread(t *testing.T) {
	// Thread 0 mispredicts constantly; thread 1 is branch-free. Thread 1
	// must keep the machine busy: total cycles must track thread 1's
	// throughput, not thread 0's stalls.
	var bad, good []isa.Inst
	for i := 0; i < 1500; i++ {
		bad = append(bad, brInst(0x0, 1, i%2 == 0)) // alternating: ~50% mispredict
		good = append(good, intOp(uint64(i%8*4), 1+(i%4), 9, 10))
		good = append(good, intOp(uint64(0x40+i%8*4), 5+(i%2), 9, 10))
	}
	c := runThreads(t, config.Figure2(1), bad, good)
	// Thread 1 alone would take ~1500×2/4 = 750+ cycles; thread 0 alone
	// (mispredict-bound) takes several thousand. Combined must not be the
	// sum of both: the machine overlaps them.
	if c.Collector().Graduated != int64(len(bad)+len(good)) {
		t.Fatal("lost instructions")
	}
	soloBad := runThreads(t, config.Figure2(1), bad)
	soloGood := runThreads(t, config.Figure2(1), good)
	if c.Now() > soloBad.Now()+soloGood.Now()-soloGood.Now()/2 {
		t.Fatalf("no overlap: combined %d vs solos %d+%d", c.Now(), soloBad.Now(), soloGood.Now())
	}
}

func TestSAQIsolationAcrossThreads(t *testing.T) {
	// Thread 0 has a store stuck behind a slow FP chain at address X;
	// thread 1 loads from the same physical address. The SAQ is
	// per-thread, so thread 1's load must not wait for thread 0's store.
	m := config.Figure2(1)
	m.StoreForwarding = true // even with forwarding, no cross-thread hit
	slowStore := []isa.Inst{
		fpOp(0x0, 1, 1, 1), fpOp(0x4, 1, 1, 1), fpOp(0x8, 1, 1, 1),
		fpOp(0xc, 1, 1, 1), fpOp(0x10, 1, 1, 1), fpOp(0x14, 1, 1, 1),
		fpStore(0x18, 1, 2, 0x4000),
	}
	otherLoad := []isa.Inst{
		fpLoad(0x20, 3, 2, 0x4000),
		fpOp(0x24, 4, 3, 3),
	}
	c := runThreads(t, m, slowStore, otherLoad)
	if c.Collector().LoadConflictStalls != 0 {
		t.Fatalf("cross-thread SAQ conflict: %d stalls", c.Collector().LoadConflictStalls)
	}
	if c.Collector().StoreForwards != 0 {
		t.Fatal("cross-thread store forwarding happened")
	}
}

func TestOldestFirstIssuePolicy(t *testing.T) {
	mk := func() []isa.Inst {
		var insts []isa.Inst
		for i := 0; i < 1500; i++ {
			insts = append(insts, fpOp(uint64(i%8*4), i%3, i%3, i%3))
			insts = append(insts, intOp(0x40, 1+(i%4), 9, 10))
		}
		return insts
	}
	m := config.Figure2(1)
	m.IssuePolicy = config.IssueOldestFirst
	c := runThreads(t, m, mk(), mk(), mk())
	if c.Collector().Graduated != 3*3000 {
		t.Fatal("oldest-first lost instructions")
	}
	rr := runThreads(t, config.Figure2(1), mk(), mk(), mk())
	// Same work, both policies near-equivalent on symmetric threads.
	ratio := float64(c.Now()) / float64(rr.Now())
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("oldest-first wildly different from RR: %d vs %d cycles", c.Now(), rr.Now())
	}
}

func TestStaticPredictorHurtsTakenLoops(t *testing.T) {
	// Always-not-taken prediction mispredicts every taken loop branch;
	// the BHT learns them. Same trace, measurably different throughput.
	var insts []isa.Inst
	for i := 0; i < 1200; i++ {
		insts = append(insts, intOp(0x0, 1+(i%4), 9, 10))
		insts = append(insts, intOp(0x4, 5+(i%2), 9, 10))
		insts = append(insts, brInst(0x8, 1, i%16 != 15)) // hot loop branch
	}
	bht := runThreads(t, config.Figure2(1), insts)
	m := config.Figure2(1)
	m.Predictor = branch.KindNotTaken
	nt := runThreads(t, m, insts)
	if bht.Collector().MispredictRate() >= nt.Collector().MispredictRate() {
		t.Fatalf("BHT mispredict rate %.2f not below static-NT %.2f",
			bht.Collector().MispredictRate(), nt.Collector().MispredictRate())
	}
	if bht.Now() >= nt.Now() {
		t.Fatalf("BHT (%d cycles) not faster than static not-taken (%d)", bht.Now(), nt.Now())
	}
	// Always-taken predicts these loops almost perfectly.
	m.Predictor = branch.KindTaken
	tk := runThreads(t, m, insts)
	if tk.Collector().MispredictRate() > 0.10 {
		t.Fatalf("always-taken mispredict rate %.2f on a taken loop", tk.Collector().MispredictRate())
	}
}

func TestGsharePredictorRuns(t *testing.T) {
	m := config.Figure2(1)
	m.Predictor = branch.KindGshare
	var insts []isa.Inst
	for i := 0; i < 800; i++ {
		insts = append(insts, intOp(0x0, 1, 9, 10))
		insts = append(insts, brInst(0x4, 1, i%2 == 0)) // alternating: gshare learns it
	}
	c := runThreads(t, m, insts)
	if c.Collector().MispredictRate() > 0.2 {
		t.Fatalf("gshare failed to learn alternation: %.2f", c.Collector().MispredictRate())
	}
}

func TestCrossUnitDependenceStallsAP(t *testing.T) {
	// An integer move reading an FP register (the loss-of-decoupling
	// conduit) must wait for the EP chain — total time is bounded below
	// by the chain latency.
	insts := []isa.Inst{
		fpOp(0x0, 1, 1, 1), // 4 cycles
		fpOp(0x4, 1, 1, 1), // +4
		{PC: 0x8, Op: isa.OpIntALU, Dest: isa.IntReg(1), Src1: isa.FPReg(1), Src2: isa.NoReg},
		brInst(0xc, 1, false),
	}
	c := runThreads(t, config.Figure2(1), insts)
	// fetch@1, dispatch@2: chain completes ~2+4+4; move issues after;
	// anything under ~10 cycles would mean the dependence was ignored.
	if c.Now() < 11 {
		t.Fatalf("LOD dependence ignored: drained in %d cycles", c.Now())
	}
}

func TestFetchStopsAtTakenBranches(t *testing.T) {
	// With a taken branch every 2 instructions, fetch delivers ≤2
	// instructions per cycle, capping IPC near 2 even though the AP could
	// issue 4.
	var insts []isa.Inst
	for i := 0; i < 2000; i++ {
		insts = append(insts, intOp(uint64(i%4*8), 1+(i%4), 9, 10))
		insts = append(insts, brInst(uint64(i%4*8+4), 1, true))
	}
	c := runThreads(t, config.Figure2(1), insts)
	if ipc := c.Collector().IPC(); ipc > 2.3 {
		t.Fatalf("IPC %.2f exceeds the taken-branch fetch bound", ipc)
	}
}

func TestSpeculationLimitThrottles(t *testing.T) {
	// Pure not-taken branch stream: the 4-unresolved-branch limit gates
	// fetch. Raising the limit must raise throughput.
	var insts []isa.Inst
	for i := 0; i < 2000; i++ {
		insts = append(insts, brInst(uint64(i%8*4), 1, false))
	}
	tight := runThreads(t, config.Figure2(1), insts)
	loose := config.Figure2(1)
	loose.MaxUnresolvedBranches = 64
	wide := runThreads(t, loose, insts)
	if wide.Now() >= tight.Now() {
		t.Fatalf("raising the speculation limit did not help: %d vs %d cycles",
			wide.Now(), tight.Now())
	}
}

func TestDispatchBackpressureCounted(t *testing.T) {
	m := config.Figure2(1)
	m.IQSize = 2 // tiny IQ: the FP chain clogs dispatch
	var insts []isa.Inst
	for i := 0; i < 400; i++ {
		insts = append(insts, fpOp(uint64(i%8*4), 0, 0, 0))
	}
	c := runThreads(t, m, insts)
	if c.Collector().DispatchStalls == 0 {
		t.Fatal("no dispatch stalls recorded with a 2-entry IQ")
	}
}

// ---------------------------------------------------------------------------
// Adversarial traces (failure injection).

func TestAdversarialTraces(t *testing.T) {
	cases := map[string][]isa.Inst{
		"zero-size load": {
			{PC: 0, Op: isa.OpLoad, Dest: isa.IntReg(1), Src1: isa.IntReg(2), Src2: isa.NoReg, Addr: 0x100, Size: 0},
			intOp(4, 3, 1, 1),
		},
		"same dest and sources": {
			intOp(0, 1, 1, 1), intOp(4, 1, 1, 1), intOp(8, 1, 1, 1),
		},
		"address near wraparound": {
			fpLoad(0, 1, 1, ^uint64(0)-7),
			fpOp(4, 2, 1, 1),
			fpStore(8, 2, 1, ^uint64(0)-39),
		},
		"store to load forwarding chain": {
			fpOp(0, 1, 1, 1),
			fpStore(4, 1, 2, 0x8000),
			fpLoad(8, 3, 2, 0x8004), // overlapping but offset
			fpOp(12, 4, 3, 3),
		},
		"all branches": {
			brInst(0, 1, true), brInst(4, 1, false), brInst(8, 1, true),
			brInst(12, 1, false), brInst(16, 1, true),
		},
		"duplicate PCs": {
			intOp(0, 1, 9, 10), intOp(0, 2, 9, 10), intOp(0, 3, 9, 10),
			brInst(0, 1, false),
		},
	}
	for name, insts := range cases {
		c := runThreads(t, config.Figure2(1), insts)
		if got := c.Collector().Graduated; got != int64(len(insts)) {
			t.Errorf("%s: graduated %d of %d", name, got, len(insts))
		}
	}
}

// ---------------------------------------------------------------------------
// Properties over random programs.

// genProgram builds a random but well-formed instruction sequence from a
// byte string: ops, registers and branch outcomes derive from the bytes.
func genProgram(data []byte) []isa.Inst {
	var insts []isa.Inst
	addr := uint64(0x1000)
	for i, b := range data {
		pc := uint64(i%32) * 4
		switch b % 7 {
		case 0, 1:
			insts = append(insts, intOp(pc, 1+int(b)%8, 9+int(b)%4, 13))
		case 2, 3:
			insts = append(insts, fpOp(pc, int(b)%6, int(b/7)%6, 8+int(b)%4))
		case 4:
			insts = append(insts, fpLoad(pc, 8+int(b)%4, 1, addr))
			addr += uint64(b%64) * 8
		case 5:
			insts = append(insts, fpStore(pc, int(b)%6, 1, addr+32))
		case 6:
			insts = append(insts, brInst(pc, 1+int(b)%4, b%3 == 0))
		}
	}
	return insts
}

// Property: every well-formed program drains completely, graduating
// exactly its length, in both machine modes, and the decoupled machine is
// never slower than the non-decoupled one.
func TestQuickProgramsDrainBothModes(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		insts := genProgram(data)
		run := func(m config.Machine) (int64, int64, bool) {
			c, err := newMachine(m, []trace.Reader{trace.Slice(insts)})
			if err != nil {
				return 0, 0, false
			}
			_, drained := c.Run(2_000_000)
			return c.Collector().Graduated, c.Now(), drained
		}
		gDec, cycDec, okDec := run(config.Figure2(1))
		gNon, cycNon, okNon := run(config.Figure2(1).NonDecoupled())
		if !okDec || !okNon {
			return false
		}
		if gDec != int64(len(insts)) || gNon != int64(len(insts)) {
			return false
		}
		// In-order-per-stream issue can only gain from slippage — up to a
		// small terminal-drain artifact: on rare programs the decoupled
		// machine's AP/EP queue handoff delays the very last graduations by
		// a cycle or two after the source runs dry (see
		// TestDecoupledDrainSlackCounterexample for a pinned instance; a
		// 300k-program scan never exceeded 2 cycles).
		return cycDec <= cycNon+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the issue-slot accounting identity (issued + wasted = offered)
// holds for arbitrary programs and thread counts.
func TestQuickSlotAccountingIdentity(t *testing.T) {
	f := func(data []byte, threadsRaw uint8) bool {
		if len(data) == 0 {
			return true
		}
		threads := int(threadsRaw%3) + 1
		sources := make([]trace.Reader, threads)
		for i := range sources {
			sources[i] = trace.Slice(genProgram(data))
		}
		c, err := newMachine(config.Figure2(threads), sources)
		if err != nil {
			return false
		}
		if _, drained := c.Run(2_000_000); !drained {
			return false
		}
		for u := 0; u < isa.NumUnits; u++ {
			s := c.Collector().Slots[u]
			var wasted float64
			for _, w := range s.Wasted {
				wasted += w
			}
			diff := float64(s.Issued) + wasted - float64(s.Total)
			if diff > 1e-6 || diff < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: perceived-latency samples are bounded by the worst possible
// memory round trip.
func TestQuickPerceivedBounded(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		m := config.Figure2(1).WithL2Latency(64)
		c, err := newMachine(m, []trace.Reader{trace.Slice(genProgram(data))})
		if err != nil {
			return false
		}
		if _, drained := c.Run(2_000_000); !drained {
			return false
		}
		p := c.Collector().Perceived()
		if p.Count == 0 {
			return true
		}
		// A single sample can never exceed ~latency + queueing slack.
		return p.Mean() <= 64*4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedFUPoolCapsTotalIssue(t *testing.T) {
	// The Section-2 machine shares 4 general-purpose FUs between the
	// units: even with both streams saturated, total issue ≤ 4/cycle.
	var insts []isa.Inst
	for i := 0; i < 3000; i++ {
		insts = append(insts, intOp(uint64(i%8*4), 1+(i%6), 9, 10))
		insts = append(insts, fpOp(uint64(0x40+i%8*4), i%6, 8+(i%4), 8+(i%4)))
	}
	shared := runThreads(t, config.Section2(), insts)
	if ipc := shared.Collector().IPC(); ipc > 4.01 {
		t.Fatalf("shared-pool IPC %.2f exceeds the 4-FU budget", ipc)
	}
	// The same trace on private 4+4 FUs can exceed 4.
	private := config.Section2()
	private.SharedFUs = 0
	private.DispatchWidth = 8
	private.GraduateWidth = 8 // lift the Section-2 retirement cap too
	wide := runThreads(t, private, insts)
	if wide.Collector().IPC() <= shared.Collector().IPC() {
		t.Fatalf("private FUs (%.2f) not faster than shared pool (%.2f)",
			wide.Collector().IPC(), shared.Collector().IPC())
	}
}

func TestGraduationObservesProgramOrder(t *testing.T) {
	// A long-latency load followed by fast int ops: nothing after the
	// load may graduate before it. Observable through timing: the machine
	// cannot drain before the miss returns even though all later
	// instructions complete early.
	insts := []isa.Inst{fpLoad(0x0, 1, 1, 0x9000)}
	for i := 0; i < 20; i++ {
		insts = append(insts, intOp(uint64(0x10+i*4), 2+(i%4), 9, 10))
	}
	c := runThreads(t, config.Figure2(1).WithL2Latency(64), insts)
	// Miss returns around cycle ~70; in-order graduation forces the drain
	// past it.
	if c.Now() < 64 {
		t.Fatalf("drained at cycle %d, before the miss could return", c.Now())
	}
}

func TestROBBackpressureBoundsRunahead(t *testing.T) {
	// A tiny ROB caps how far the AP can slip past a blocked load at the
	// ROB head: the tight machine must be slower on a miss-heavy stream.
	tight := config.Figure2(1).WithL2Latency(128)
	tight.ROBSize = 8
	wide := config.Figure2(1).WithL2Latency(128)
	mk := func() []isa.Inst { return slipTrace(600) }
	a := runThreads(t, tight, mk())
	b := runThreads(t, wide, mk())
	if a.Now() <= b.Now() {
		t.Fatalf("8-entry ROB (%d cycles) not slower than 128-entry (%d)", a.Now(), b.Now())
	}
}

func TestPortContentionSlowsLoads(t *testing.T) {
	// Single-ported L1 vs the Figure-2 four ports, on a load-dense stream
	// that hits in cache.
	mk := func() []isa.Inst {
		var insts []isa.Inst
		for i := 0; i < 3000; i++ {
			// Revisit a small set of lines: everything hits after warmup.
			insts = append(insts, fpLoad(uint64(i%8*4), 8+(i%4), 1, uint64(i%64)*32))
			insts = append(insts, fpLoad(uint64(0x40+i%8*4), 12+(i%2), 2, uint64(i%64)*32+8))
		}
		return insts
	}
	one := config.Figure2(1)
	one.Mem.Ports = 1
	narrow := runThreads(t, one, mk())
	full := runThreads(t, config.Figure2(1), mk())
	if narrow.Now() <= full.Now() {
		t.Fatalf("1-port L1 (%d cycles) not slower than 4-port (%d)", narrow.Now(), full.Now())
	}
	if narrow.Mem().Stats().PortRejects == 0 {
		t.Fatal("no port rejections recorded on a 1-port cache")
	}
}
