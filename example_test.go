package daesim_test

import (
	"context"
	"fmt"
	"slices"

	daesim "repro"
)

// The godoc examples run as part of the test suite; they use fixed seeds
// and small budgets so their output is stable and fast.

// Running the paper's machine on the multiprogrammed benchmark mix
// through the Engine — the canonical entry point.
func Example() {
	eng, err := daesim.NewEngine(daesim.EngineOpts{})
	if err != nil {
		panic(err)
	}
	m := daesim.Figure2(3) // Figure-2 machine, 3 hardware contexts
	rep, err := eng.Run(context.Background(), daesim.MixRequest(m, daesim.RunOpts{
		WarmupInsts:  100_000,
		MeasureInsts: 600_000,
	}))
	if err != nil {
		panic(err)
	}
	fmt.Printf("threads=%d decoupled=%v\n", rep.Threads, rep.Decoupled)
	fmt.Printf("IPC above 5: %v\n", rep.IPC() > 5)
	fmt.Printf("perceived miss latency under 5 cycles: %v\n", rep.Perceived().Mean() < 5)
	// Output:
	// threads=3 decoupled=true
	// IPC above 5: true
	// perceived miss latency under 5 cycles: true
}

// Comparing the decoupled machine against the paper's non-decoupled
// baseline at a high memory latency, as one batch.
func Example_nonDecoupled() {
	eng, err := daesim.NewEngine(daesim.EngineOpts{})
	if err != nil {
		panic(err)
	}
	m := daesim.Figure2(2).WithL2Latency(64)
	opts := daesim.RunOpts{WarmupInsts: 50_000, MeasureInsts: 300_000}
	results, err := eng.RunBatch(context.Background(), []daesim.Request{
		daesim.MixRequest(m, opts),
		daesim.MixRequest(m.NonDecoupled(), opts),
	})
	if err != nil {
		panic(err)
	}
	dec, non := results[0].Report, results[1].Report
	fmt.Printf("decoupling wins: %v\n", dec.IPC() > non.IPC()*1.5)
	// Output:
	// decoupling wins: true
}

// Requests are serializable and content-addressed: the hash names the
// result in the Engine cache, on disk, and over dae-serve's HTTP API.
func ExampleRequest_Hash() {
	req := daesim.MixRequest(daesim.Figure2(2), daesim.RunOpts{Seed: 42})
	relabelled := req
	relabelled.Label = "tuesday night batch"
	fmt.Printf("hash length: %d\n", len(req.Hash()))
	fmt.Printf("label changes the hash: %v\n", req.Hash() != relabelled.Hash())
	// Output:
	// hash length: 64
	// label changes the hash: false
}

// Running a single benchmark on the paper's Section-2 machine.
func ExampleBenchmarkRequest() {
	eng, err := daesim.NewEngine(daesim.EngineOpts{})
	if err != nil {
		panic(err)
	}
	m := daesim.Section2().WithL2Latency(256)
	rep, err := eng.Run(context.Background(), daesim.BenchmarkRequest("tomcatv", m, daesim.RunOpts{
		WarmupInsts:  50_000,
		MeasureInsts: 200_000,
	}))
	if err != nil {
		panic(err)
	}
	// tomcatv decouples almost perfectly: even at a 256-cycle L2 the
	// perceived FP miss latency is near zero (paper Figure 1-a).
	fmt.Printf("fp misses sampled: %v\n", rep.PerceivedFP.Count > 0)
	fmt.Printf("fp latency hidden: %v\n", rep.PerceivedFP.Mean() < 2)
	// Output:
	// fp misses sampled: true
	// fp latency hidden: true
}

// Defining custom workload models and comparing how well they decouple:
// a pointer-chasing gather (the worst case for an access/execute
// machine, whose addresses come from memory) against a blocked stencil
// (the best case, whose addresses the AP computes arbitrarily far
// ahead). The full model is part of the Request hash, so custom results
// cache like the built-ins.
func ExampleCustomRequest() {
	gather := daesim.Benchmark{
		Name: "gather-chase",
		Seed: 0xC0FFEE,
		Streams: []daesim.StreamSpec{
			{Name: "index", SizeBytes: 2 << 20, StrideBytes: 8},
			{Name: "data", SizeBytes: 2 << 20, StrideBytes: 8},
			{Name: "out", SizeBytes: 8 << 10, StrideBytes: 8},
		},
		Kernels: []daesim.Kernel{{
			Name: "chase", Weight: 1000, InnerTrip: 100,
			FPLoads: []int{1}, Stores: []int{2},
			FPOps: 4, FPChains: 4, IntOps: 1,
			// Each iteration's index load feeds the next instruction's
			// FP load address: the AP cannot run ahead of memory.
			IntLoad: daesim.IntLoadSpec{Stream: 0, Every: 1, Feeds: true, Dist: 1},
		}},
	}
	stencil := daesim.Benchmark{
		Name: "stencil-blocked",
		Seed: 0xBEEF,
		Streams: []daesim.StreamSpec{
			{Name: "grid", SizeBytes: 4 << 20, StrideBytes: 8, Reuse: 3},
			{Name: "coef", SizeBytes: 8 << 10, StrideBytes: 8},
			{Name: "out", SizeBytes: 4 << 20, StrideBytes: 8, Reuse: 3},
		},
		Kernels: []daesim.Kernel{{
			Name: "sweep", Weight: 1000, InnerTrip: 200,
			FPLoads: []int{0, 1}, Stores: []int{2},
			FPOps: 6, FPChains: 6, IntOps: 2,
		}},
	}
	eng, err := daesim.NewEngine(daesim.EngineOpts{})
	if err != nil {
		panic(err)
	}
	run := func(b daesim.Benchmark, l2 int64) daesim.Report {
		m := daesim.Figure2(1).WithL2Latency(l2)
		// Scale the slip window with the latency (the paper's Section-2
		// rule), so the comparison isolates the workloads from buffer
		// sizing (DESIGN.md §5, ablation A6).
		m.ScaleWithLatency = true
		rep, err := eng.Run(context.Background(), daesim.CustomRequest(b, m, daesim.RunOpts{
			WarmupInsts:  20_000,
			MeasureInsts: 100_000,
		}))
		if err != nil {
			panic(err)
		}
		return rep
	}
	fmt.Println("kernel           L2=16  L2=128   loss  perceived@128")
	for _, b := range []daesim.Benchmark{stencil, gather} {
		fast, slow := run(b, 16), run(b, 128)
		fmt.Printf("%-15s %6.2f %7.2f %5.1f%% %14.1f\n", b.Name, fast.IPC(), slow.IPC(),
			100*(1-slow.IPC()/fast.IPC()), slow.Perceived().Mean())
	}
	// Output:
	// kernel           L2=16  L2=128   loss  perceived@128
	// stencil-blocked   3.25    3.25   0.0%            0.0
	// gather-chase      1.41    0.31  78.2%           51.8
}

// Finding how many hardware contexts each machine needs to reach its
// peak throughput (the solid lines of the paper's Figure 5). The sweep
// is one batch: its points run concurrently across the worker pool,
// duplicates are deduplicated, and results come back in request order.
func ExampleEngine_RunBatch() {
	eng, err := daesim.NewEngine(daesim.EngineOpts{})
	if err != nil {
		panic(err)
	}
	const maxThreads = 6
	var reqs []daesim.Request
	for t := int64(1); t <= maxThreads; t++ {
		m := daesim.Figure2(int(t)).WithL2Latency(16)
		opts := daesim.RunOpts{WarmupInsts: 5_000 * t, MeasureInsts: 20_000 * t}
		reqs = append(reqs, daesim.MixRequest(m, opts), daesim.MixRequest(m.NonDecoupled(), opts))
	}
	results, err := eng.RunBatch(context.Background(), reqs)
	if err != nil {
		panic(err)
	}
	fmt.Println("threads  decoupled  non-decoupled")
	var dec, non []float64
	for t := 1; t <= maxThreads; t++ {
		d, n := results[2*t-2].Report.IPC(), results[2*t-1].Report.IPC()
		dec, non = append(dec, d), append(non, n)
		fmt.Printf("%7d%11.2f%15.2f\n", t, d, n)
	}
	fmt.Printf("within 5%% of peak: decoupled at %d threads, non-decoupled at %d\n",
		nearPeak(dec), nearPeak(non))
	// Output:
	// threads  decoupled  non-decoupled
	//       1       3.51           1.76
	//       2       6.83           2.56
	//       3       6.93           3.86
	//       4       6.94           4.58
	//       5       6.96           5.55
	//       6       6.97           6.04
	// within 5% of peak: decoupled at 2 threads, non-decoupled at 6
}

// nearPeak returns the smallest thread count whose IPC is within 5% of
// the series' peak.
func nearPeak(ipcs []float64) int {
	peak := slices.Max(ipcs)
	return slices.IndexFunc(ipcs, func(x float64) bool { return x >= 0.95*peak }) + 1
}

// Watching a batch's progress stream while it runs. The machines have a
// finite 256 KB shared L2 over DRAM instead of the paper's flat L2, so
// each report splits bus utilization by level (the paper's Figure-5 bus
// study, with a core axis): the L1<->L2 buses carry every L1 miss, the
// memory bus only the shared L2's misses.
func ExampleEngine_Watch() {
	eng, err := daesim.NewEngine(daesim.EngineOpts{})
	if err != nil {
		panic(err)
	}
	// 256 holds every event of this batch (a few snapshots and one
	// ProgressDone per run), so none is dropped.
	events, stop := eng.Watch(256)
	finished := make(chan int)
	go func() {
		n := 0
		for p := range events {
			if p.Event == daesim.ProgressDone && p.Err == nil {
				n++
			}
		}
		finished <- n
	}()
	shapes := [][2]int{{1, 2}, {1, 4}, {2, 2}, {2, 4}} // cores, contexts per core
	var reqs []daesim.Request
	for _, s := range shapes {
		m := daesim.Figure2(s[1]).WithHierarchy(64, daesim.SharedL2(256<<10, 8)).WithCores(s[0])
		n := int64(s[0] * s[1])
		opts := daesim.RunOpts{WarmupInsts: 5_000 * n, MeasureInsts: 20_000 * n}
		reqs = append(reqs, daesim.MixRequest(m, opts), daesim.MixRequest(m.NonDecoupled(), opts))
	}
	results, err := eng.RunBatch(context.Background(), reqs)
	stop() // every ProgressDone event is published before RunBatch returns
	if err != nil {
		panic(err)
	}
	fmt.Printf("watched %d of %d runs finish\n", <-finished, len(reqs))
	fmt.Println("cores  contexts  machine         IPC  L1<->L2  L2<->mem")
	for i, res := range results {
		r := res.Report
		machine := "decoupled"
		if !r.Decoupled {
			machine = "non-decoupled"
		}
		memBus := r.MemLevels[len(r.MemLevels)-1].BusUtilization
		fmt.Printf("%5d %9d  %-13s %5.2f %7.1f%% %8.1f%%\n",
			shapes[i/2][0], shapes[i/2][1], machine, r.IPC(), 100*r.BusUtilization, 100*memBus)
	}
	// Output:
	// watched 8 of 8 runs finish
	// cores  contexts  machine         IPC  L1<->L2  L2<->mem
	//     1         2  decoupled      2.37    26.3%     16.1%
	//     1         2  non-decoupled  0.92    10.9%      6.7%
	//     1         4  decoupled      4.18    49.9%     27.8%
	//     1         4  non-decoupled  1.78    22.7%     12.1%
	//     2         2  decoupled      4.26    23.4%     28.1%
	//     2         2  non-decoupled  1.87    10.5%     12.4%
	//     2         4  decoupled      5.69    33.4%     37.4%
	//     2         4  non-decoupled  3.88    22.8%     21.8%
}

// Inspecting the machine configuration presets.
func ExampleFigure2() {
	m := daesim.Figure2(4)
	fmt.Printf("issue width %d+%d, IQ %d, SAQ %d, regs %d+%d\n",
		m.APWidth, m.EPWidth, m.IQSize, m.SAQSize, m.APRegs, m.EPRegs)
	// Output:
	// issue width 4+4, IQ 48, SAQ 32, regs 64+96
}
