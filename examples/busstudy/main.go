// Bus-saturation study: the dotted lines of the paper's Figure 5. At a
// 64-cycle L2 latency the non-decoupled machine needs so many contexts to
// hide memory latency that their combined working set thrashes the L1 and
// the L1↔L2 bus saturates — it can never match the decoupled machine.
//
// With -l2size the flat infinite L2 is replaced by a finite shared L2
// over DRAM and the table adds the per-level view: the L1↔L2 bus and
// the L2↔memory bus saturate at different thread counts, which the flat
// model cannot show.
//
// The sweep runs as one Engine batch and demonstrates the progress
// stream: Engine.Watch reports per-run graduation snapshots and
// per-point completions live on stderr while the table builds.
//
//	go run ./examples/busstudy [-maxthreads 16] [-l2size 262144]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	daesim "repro"
)

func main() {
	maxThreads := flag.Int("maxthreads", 16, "largest context count to sweep (per core)")
	measure := flag.Int64("measure", 400_000, "instructions per thread per run")
	l2Size := flag.Int("l2size", 0, "finite shared L2 capacity in bytes (0 = the paper's infinite flat L2)")
	cores := flag.Int("cores", 1, "CMP cores sharing the hierarchy (each context count then applies per core)")
	flag.Parse()

	eng, err := daesim.NewEngine(daesim.EngineOpts{})
	if err != nil {
		log.Fatal(err)
	}

	// Live progress on stderr: completions as they happen.
	events, stop := eng.Watch(256)
	defer stop()
	go func() {
		for p := range events {
			if p.Event == daesim.ProgressDone && p.Err == nil {
				fmt.Fprintf(os.Stderr, "  [%d/%d] %s\n", p.Done, p.Total, p.Label)
			}
		}
	}()

	var reqs []daesim.Request
	for t := 1; t <= *maxThreads; t++ {
		opts := daesim.RunOpts{
			WarmupInsts:  100_000 * int64(t**cores),
			MeasureInsts: *measure * int64(t**cores),
		}
		m := daesim.Figure2(t).WithL2Latency(64)
		if *l2Size > 0 {
			m = daesim.Figure2(t).WithHierarchy(64, daesim.SharedL2(*l2Size, 8))
		}
		m = m.WithCores(*cores)
		reqs = append(reqs,
			daesim.MixRequest(m, opts),
			daesim.MixRequest(m.NonDecoupled(), opts))
	}
	results, err := eng.RunBatch(context.Background(), reqs)
	if err != nil {
		log.Fatal(err)
	}

	if *l2Size > 0 {
		fmt.Printf("finite %d KB shared L2 + DRAM: IPC and per-level bus utilization vs contexts\n\n", *l2Size>>10)
		fmt.Printf("%7s  %36s  %36s\n", "", "decoupled", "non-decoupled")
		fmt.Printf("%7s  %8s %13s %13s  %8s %13s %13s\n",
			"threads", "IPC", "L1<->L2", "L2<->mem", "IPC", "L1<->L2", "L2<->mem")
	} else {
		fmt.Println("L2 latency = 64 cycles: IPC and bus utilization vs contexts")
		fmt.Println()
		fmt.Printf("%7s  %24s  %24s\n", "", "decoupled", "non-decoupled")
		fmt.Printf("%7s  %8s %15s  %8s %15s\n", "threads", "IPC", "bus", "IPC", "bus")
	}

	for t := 1; t <= *maxThreads; t++ {
		dec := results[2*(t-1)].Report
		non := results[2*(t-1)+1].Report
		if *l2Size > 0 {
			memBus := func(r daesim.Report) float64 {
				if len(r.MemLevels) == 0 {
					return 0
				}
				return r.MemLevels[len(r.MemLevels)-1].BusUtilization
			}
			fmt.Printf("%7d  %8.2f %5.1f%% %s %5.1f%% %s  %8.2f %5.1f%% %s %5.1f%% %s\n",
				t,
				dec.IPC(), 100*dec.BusUtilization, bar(dec.BusUtilization, 5),
				100*memBus(dec), bar(memBus(dec), 5),
				non.IPC(), 100*non.BusUtilization, bar(non.BusUtilization, 5),
				100*memBus(non), bar(memBus(non), 5))
			continue
		}
		fmt.Printf("%7d  %8.2f %6.1f%% %s  %8.2f %6.1f%% %s\n",
			t,
			dec.IPC(), 100*dec.BusUtilization, bar(dec.BusUtilization, 8),
			non.IPC(), 100*non.BusUtilization, bar(non.BusUtilization, 8))
	}

	if *l2Size > 0 {
		fmt.Println("\nthe finite-L2 view separates the two bandwidth walls: the L1<->L2")
		fmt.Println("bus carries every L1 miss, the memory bus only the shared-cache")
		fmt.Println("misses — adding contexts moves pressure from one to the other as")
		fmt.Println("the combined working set outgrows the shared capacity.")
		return
	}
	fmt.Println("\npaper: with decoupling disabled the bus reaches 89% utilization")
	fmt.Println("at 12 threads and 98% at 16 — bandwidth, not latency, becomes the")
	fmt.Println("bottleneck, so no number of contexts recovers the lost throughput.")
}

// bar renders a utilization bar of the given width for terminal output
// (narrow bars fit two per column pair in the per-level table).
func bar(frac float64, width int) string {
	n := int(float64(frac*float64(width)) + 0.5) // no fused multiply-add
	if n > width {
		n = width
	}
	return "[" + strings.Repeat("#", n) + strings.Repeat(".", width-n) + "]"
}
