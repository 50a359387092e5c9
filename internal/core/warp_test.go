package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestDecoupledDrainSlackCounterexample pins the quick-check
// counterexample behind TestQuickProgramsDrainBothModes' 2-cycle slack: a
// 49-instruction program on which the decoupled Figure-2 machine drains 2
// cycles after the non-decoupled one (60 vs 58). The loss is a terminal
// artifact — the last few EP instructions ride the AP/EP queue handoff
// after fetch has run dry, where slippage can no longer buy anything — so
// it is bounded by queue latency, not proportional to program length.
func TestDecoupledDrainSlackCounterexample(t *testing.T) {
	data := []byte{
		0x0b, 0x95, 0xb6, 0xcb, 0xbc, 0xb4, 0x5f, 0x5c, 0x02, 0x38,
		0x2b, 0x59, 0xef, 0x09, 0x76, 0xeb, 0xc9, 0x83, 0x68, 0x5d,
		0xbd, 0xa2, 0x94, 0x85, 0xd6, 0xf7, 0x3a, 0xf6, 0x5e, 0x1a,
		0x6b, 0xb9, 0x23, 0x9f, 0x04, 0xd7, 0xac, 0x5b, 0xfa, 0x5c,
		0x0c, 0x63, 0x35, 0x47, 0x53, 0x44, 0x8c, 0xfc, 0x7f,
	}
	insts := genProgram(data)
	run := func(m config.Machine) (int64, int64) {
		c, err := newMachine(m, []trace.Reader{trace.Slice(insts)})
		if err != nil {
			t.Fatal(err)
		}
		if _, drained := c.Run(2_000_000); !drained {
			t.Fatal("machine did not drain")
		}
		return c.Collector().Graduated, c.Now()
	}
	gDec, cycDec := run(config.Figure2(1))
	gNon, cycNon := run(config.Figure2(1).NonDecoupled())
	if gDec != int64(len(insts)) || gNon != int64(len(insts)) {
		t.Fatalf("graduated dec=%d non=%d, want %d", gDec, gNon, len(insts))
	}
	if cycDec > cycNon+2 {
		t.Errorf("drain slack grew: decoupled %d vs non-decoupled %d cycles", cycDec, cycNon)
	}
}

// warpProgram is a deterministic mixed program long enough to leave
// architectural state behind: loads and stores walking distinct lines,
// branches with a stable taken pattern, and ALU filler.
func warpProgram(n int, addrBase uint64) []isa.Inst {
	var insts []isa.Inst
	for i := 0; i < n; i++ {
		pc := uint64(i%16) * 4
		switch i % 5 {
		case 0:
			insts = append(insts, fpLoad(pc, 8+i%4, 1, addrBase+uint64(i)*32))
		case 1:
			insts = append(insts, fpStore(pc, i%6, 1, addrBase+uint64(i)*32))
		case 2:
			insts = append(insts, brInst(pc, 1+i%4, i%3 == 0))
		default:
			insts = append(insts, intOp(pc, 1+i%8, 9+i%4, 13))
		}
	}
	return insts
}

// TestWarpAdvancesArchitecturalStateOnly drives the functional warp on a
// fresh single-core machine: cursors move (the consumed instructions
// never graduate), simulated time stands still, the caches warm, and the
// remainder of the program still drains on the timed path.
func TestWarpAdvancesArchitecturalStateOnly(t *testing.T) {
	insts := warpProgram(200, 0x10000)
	c, err := newMachine(config.Figure2(1), []trace.Reader{trace.Slice(insts)})
	if err != nil {
		t.Fatal(err)
	}
	if !c.PipelineEmpty() {
		t.Fatal("fresh machine's pipeline not empty")
	}
	if !c.DrainPipeline() {
		t.Fatal("drain of an idle machine failed")
	}
	if done := c.Warp(100); done != 100 {
		t.Fatalf("warped %d instructions, want 100", done)
	}
	if c.Now() != 0 {
		t.Errorf("warp advanced time to cycle %d", c.Now())
	}
	if g := c.Collector().Graduated; g != 0 {
		t.Errorf("warp graduated %d instructions", g)
	}
	// The warmed footprint is architecturally present: the first warped
	// load's line sits in the L1.
	if !c.Mem().Cache().Lookup(0x10000) {
		t.Error("warp did not warm the first touched line")
	}
	// The timed path finishes the rest and only the rest.
	if _, drained := c.Run(2_000_000); !drained {
		t.Fatal("post-warp run did not drain")
	}
	if g := c.Collector().Graduated; g != 100 {
		t.Errorf("graduated %d instructions after the warp, want 100", g)
	}
	// Sources are dry: further warps consume nothing.
	if done := c.Warp(10); done != 0 {
		t.Errorf("warp on a dry source consumed %d", done)
	}
}

// TestWarpRoundRobinAcrossContexts checks warp fairness: with two
// contexts and a bound below the total, consumption alternates one
// instruction per context per round, mirroring fetch's rotation.
func TestWarpRoundRobinAcrossContexts(t *testing.T) {
	// The bases must not alias in the direct-mapped 64 KB L1 (their
	// distance is not a multiple of the cache size).
	a := warpProgram(40, 0x10000)
	b := warpProgram(40, 0x24000)
	c, err := newMachine(config.Figure2(2), []trace.Reader{trace.Slice(a), trace.Slice(b)})
	if err != nil {
		t.Fatal(err)
	}
	if done := c.Warp(10); done != 10 {
		t.Fatalf("warped %d, want 10", done)
	}
	// 5 rounds of one instruction each: both contexts' first touched
	// lines (instruction 0 is a load in each program) are warm.
	if !c.Mem().Cache().Lookup(0x10000) || !c.Mem().Cache().Lookup(0x24000) {
		t.Error("round-robin warp did not touch both contexts' footprints")
	}
	// An exhausted context is skipped, the other drains the budget.
	short, err := newMachine(config.Figure2(2), []trace.Reader{
		trace.Slice(a[:3]), trace.Slice(b)})
	if err != nil {
		t.Fatal(err)
	}
	if done := short.Warp(20); done != 20 {
		t.Fatalf("warped %d with one short context, want 20", done)
	}
}

// TestDrainPipelineReachesQuietBoundary starts a run mid-flight, drains,
// and requires the clean boundary: empty pipelines, quiescent memory,
// and fetch unfrozen afterwards (the machine still finishes).
func TestDrainPipelineReachesQuietBoundary(t *testing.T) {
	insts := warpProgram(400, 0x10000)
	c, err := newMachine(config.Figure2(1), []trace.Reader{trace.Slice(insts)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	if !c.DrainPipeline() {
		t.Fatal("drain did not complete")
	}
	if !c.PipelineEmpty() {
		t.Error("pipeline not empty after drain")
	}
	if !c.Mem().Quiescent() {
		t.Error("memory not quiescent after drain")
	}
	mid := c.Collector().Graduated
	if mid == 0 {
		t.Error("nothing graduated before the boundary")
	}
	if _, drained := c.Run(2_000_000); !drained {
		t.Fatal("post-drain run did not finish")
	}
	if g := c.Collector().Graduated; g != int64(len(insts)) {
		t.Errorf("graduated %d, want %d", g, len(insts))
	}
}

// TestCMPWarpAndDrain exercises the chip-level warp and drain: two cores
// × one context, lockstep interleaving, both footprints warm, and the
// remainder completes on the timed path.
func TestCMPWarpAndDrain(t *testing.T) {
	m := config.Figure2(1).WithCores(2).WithHierarchy(64,
		config.SharedL2(64<<10, 8))
	a := warpProgram(100, 0x10000)
	b := warpProgram(100, 0x90000)
	p, err := NewCMP(m, []trace.Reader{trace.Slice(a), trace.Slice(b)})
	if err != nil {
		t.Fatal(err)
	}
	if !p.DrainPipeline() {
		t.Fatal("drain of an idle CMP failed")
	}
	if done := p.Warp(60); done != 60 {
		t.Fatalf("warped %d, want 60", done)
	}
	if p.Now() != 0 {
		t.Errorf("CMP warp advanced time to %d", p.Now())
	}
	// 30 instructions per core consumed: both cores' first lines warm.
	if !p.Core(0).Mem().Cache().Lookup(0x10000) {
		t.Error("core 0 footprint cold after warp")
	}
	if !p.Core(1).Mem().Cache().Lookup(0x90000) {
		t.Error("core 1 footprint cold after warp")
	}
	for i := 0; i < 10; i++ {
		p.Tick()
	}
	if !p.DrainPipeline() {
		t.Fatal("mid-run CMP drain failed")
	}
	// A dry warp consumes what remains and no more.
	if done := p.Warp(1_000); done >= 140 {
		t.Errorf("dry warp consumed %d, more than the %d remaining", done, 140)
	}
}

// oracleWarp is the warp the windowed kernel must reproduce: one
// instruction per context per round, cores then contexts in index order,
// each peeked, applied through the predictor interface and mem.Warm, and
// consumed before the next is looked at.
func oracleWarp(cores []*Core, n int64) int64 {
	var done int64
	for done < n {
		var round int64
		for _, co := range cores {
			for _, ctx := range co.ctxs {
				if done+round >= n {
					break
				}
				in, ok := ctx.peekSource()
				if !ok {
					continue
				}
				if in.IsBranch() {
					ctx.Pred.Update(in.PC, in.Taken)
				} else if in.IsMem() {
					co.mem.Warm(in.Addr, in.IsStore())
				}
				ctx.consumeSource()
				round++
			}
		}
		if round == 0 {
			break
		}
		done += round
	}
	return done
}

// warpMachines are the machine shapes the kernel must match the oracle
// on: the flat-tag path (one core, or a CMP declared disjoint), and every
// fallback — an ablation predictor, an associative L1, a finite shared
// L2, and CMPs that run the write-invalidate broadcast.
var warpMachines = []struct {
	name     string
	disjoint bool
	machine  func(threads int) config.Machine
}{
	{"flat", false, config.Figure2},
	{"gshare", false, func(t int) config.Machine {
		m := config.Figure2(t)
		m.Predictor = branch.KindGshare
		return m
	}},
	{"l1-2way", false, func(t int) config.Machine {
		m := config.Figure2(t)
		m.Mem.L1.Assoc = 2
		return m
	}},
	{"sharedL2", false, func(t int) config.Machine {
		return config.Figure2(t).WithHierarchy(64, config.SharedL2(64<<10, 8))
	}},
	{"cmp-flat", false, func(t int) config.Machine { return config.Figure2(t).WithCores(2) }},
	{"cmp-flat-disjoint", true, func(t int) config.Machine { return config.Figure2(t).WithCores(2) }},
	{"cmp-sharedL2", false, func(t int) config.Machine {
		return config.Figure2(t).WithCores(2).WithHierarchy(64, config.SharedL2(64<<10, 8))
	}},
}

// Property: the windowed warp kernel leaves exactly the state the
// one-at-a-time oracle does — same counts consumed, same predictor and
// tag arrays — and the timed run that follows is identical. Contexts mix
// Filler and plain sources of different lengths (so windows
// drift out of phase and run dry mid-window), and the budgets are odd
// and sometimes smaller than one round.
func TestQuickWarpMatchesOracle(t *testing.T) {
	f := func(data []byte, threadsRaw, kinds uint8, budgets [3]uint16, ticks [3]uint8) bool {
		threads := int(threadsRaw%3) + 1
		for _, wm := range warpMachines {
			m := wm.machine(threads)
			build := func() (*CMP, []*Core) {
				sources := make([]trace.Reader, m.CoreCount()*threads)
				for i := range sources {
					var insts []isa.Inst
					for range 2 + i {
						insts = append(insts, genProgram(data[i*len(data)/(len(sources)+1):])...)
					}
					// Alias every context onto the same sets of the
					// 64 KB L1 with a distinct tag, so the order of
					// their touches decides which line survives.
					for j := range insts {
						if insts[j].IsMem() {
							insts[j].Addr += uint64(i) << 16
						}
					}
					if kinds>>(i%8)&1 == 0 {
						sources[i] = &sliceFiller{insts}
					} else {
						sources[i] = trace.Slice(insts)
					}
				}
				p, err := NewCMP(m, sources)
				if err != nil {
					t.Fatal(err)
				}
				p.ic.SetDisjointAddressSpaces(wm.disjoint)
				return p, p.cores
			}
			kp, kc := build()
			op, oc := build()
			for i, b := range budgets {
				n := int64(b%600) | 1
				for range ticks[i] % 40 {
					kp.Tick()
					op.Tick()
				}
				kp.DrainPipeline()
				op.DrainPipeline()
				kn, on := kp.Warp(n), oracleWarp(oc, n)
				if kn != on {
					t.Logf("%s: warp %d consumed %d, oracle %d", wm.name, n, kn, on)
					return false
				}
				for c := range kc {
					if !reflect.DeepEqual(kc[c].mem.Cache(), oc[c].mem.Cache()) {
						t.Logf("%s: core %d L1 tags differ after warp %d", wm.name, c, i)
						return false
					}
					for x := range kc[c].ctxs {
						if !reflect.DeepEqual(kc[c].ctxs[x].Pred, oc[c].ctxs[x].Pred) {
							t.Logf("%s: core %d ctx %d predictor differs after warp %d", wm.name, c, x, i)
							return false
						}
					}
				}
			}
			for !kp.Done() {
				kp.Step(1 << 40)
			}
			for !op.Done() {
				op.Step(1 << 40)
			}
			if kp.Now() != op.Now() {
				t.Logf("%s: timed runs after the warps end at cycles %d and %d", wm.name, kp.Now(), op.Now())
				return false
			}
			for c := range kc {
				if !reflect.DeepEqual(kc[c].col, oc[c].col) || kc[c].mem.Stats() != oc[c].mem.Stats() {
					t.Logf("%s: core %d's timed run after the warps differs", wm.name, c)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCoreAccessors pins the trivial read-side surface the simulator
// drivers rely on.
func TestCoreAccessors(t *testing.T) {
	m := config.Figure2(2)
	c, err := newMachine(m, []trace.Reader{
		trace.Slice(warpProgram(10, 0x1000)), trace.Slice(warpProgram(10, 0x2000))})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.cfg; got.Threads != 2 {
		t.Errorf("cfg.Threads = %d, want 2", got.Threads)
	}
	if c.Context(0) == nil || c.Context(1) == nil {
		t.Error("Context returned nil")
	}

	cm := config.Figure2(1).WithCores(2).WithHierarchy(64,
		config.SharedL2(64<<10, 8))
	p, err := NewCMP(cm, []trace.Reader{
		trace.Slice(warpProgram(10, 0x1000)), trace.Slice(warpProgram(10, 0x2000))})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.cfg; got.Cores != 2 {
		t.Errorf("CMP cfg.Cores = %d, want 2", got.Cores)
	}
	if p.Interconnect() == nil {
		t.Error("Interconnect returned nil")
	}
	if p.Done() {
		t.Error("fresh CMP reports done")
	}
}

// TestWarpLiveSourcesMatchOracle feeds the warp live generators — mix
// streams and single benchmarks, which skip — on every machine shape,
// after a random prefix read through Fill, so each warp starts mid
// iteration and, for the mix, mid segment. The kernel machine is built
// first and gets the live sources; the oracle's twins, requested a
// second time, may replay interned copies of the same streams.
func TestWarpLiveSourcesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seed := uint64(1 << 50)
	for _, wm := range warpMachines {
		for _, threads := range []int{1, 3} {
			m := wm.machine(threads)
			seed++
			prefixes := make([]int, m.CoreCount()*threads)
			for i := range prefixes {
				prefixes[i] = rng.Intn(2 * workload.DefaultSegmentLen)
			}
			build := func() *CMP {
				sources := make([]trace.Reader, len(prefixes))
				for i := range sources {
					if i%2 == 0 {
						sources[i] = workload.Mix(i, workload.MixOpts{Seed: seed})
					} else {
						b, _ := workload.ByName("fpppp")
						sources[i] = b.NewReader(workload.ReaderOpts{AddrOffset: workload.ThreadAddrOffset(i), Seed: seed})
					}
					sources[i].(trace.Filler).Fill(make([]isa.Inst, prefixes[i]))
				}
				p, err := NewCMP(m, sources)
				if err != nil {
					t.Fatal(err)
				}
				p.ic.SetDisjointAddressSpaces(wm.disjoint)
				return p
			}
			kp, op := build(), build()
			if _, ok := kp.cores[0].ctxs[0].Source.(trace.Skipper); !ok {
				t.Fatalf("%s: the kernel machine's first source cannot skip", wm.name)
			}
			for _, n := range []int64{1, 7, 5_003, 60_001} {
				if kn, on := kp.Warp(n), oracleWarp(op.cores, n); kn != on {
					t.Fatalf("%s/%dT: warp %d consumed %d, oracle %d", wm.name, threads, n, kn, on)
				}
				for c := range kp.cores {
					if !reflect.DeepEqual(kp.cores[c].mem.Cache(), op.cores[c].mem.Cache()) {
						t.Fatalf("%s/%dT: core %d L1 tags differ after warp %d", wm.name, threads, c, n)
					}
					for x := range kp.cores[c].ctxs {
						if !reflect.DeepEqual(kp.cores[c].ctxs[x].Pred, op.cores[c].ctxs[x].Pred) {
							t.Fatalf("%s/%dT: core %d ctx %d predictor differs after warp %d", wm.name, threads, c, x, n)
						}
					}
				}
				kp.Step(kp.Now() + 300)
				op.Step(op.Now() + 300)
				kp.DrainPipeline()
				op.DrainPipeline()
			}
		}
	}
}
