package experiments

import (
	"fmt"

	"repro/internal/config"
)

// This file declares the CMP scaling study (figure C1), the first
// experiment over the multi-core composition: Figure-2 cores — each with
// its own SMT contexts, decoupled queues and private L1 — sharing a
// finite L2 over DRAM. Three questions, three sections of one sweep:
//
//   - scaling: aggregate throughput vs cores × contexts-per-core at a
//     fixed shared L2 — does the machine scale, and where does the
//     shared level saturate?
//   - private vs shared L2: the same multi-core points with the L2
//     replicated per core (config.Machine.WithPrivateHierarchy) — how
//     much of the loss is contention rather than capacity?
//   - interference: cores × L2 capacity at one context per core,
//     extending the I1 study across cores (Desai 2023's two-program
//     shared-cache coupling, here with whole decoupled cores).
//
// Every context runs its own benchmark-mix copy in a private address
// space, so cores couple only through shared-level capacity, MSHRs and
// bus bandwidth — write-invalidate coherence traffic stays zero by
// construction, which the C1 test pins (cross-core sharing is exercised
// by the mem package's coherence tests instead).

// C1Cores is the core-count axis.
var C1Cores = []int{1, 2, 4}

// C1Contexts is the contexts-per-core axis of the scaling section.
var C1Contexts = []int{1, 2}

// C1SharedL2Size is the fixed shared-L2 capacity of the scaling and
// private-vs-shared sections.
const C1SharedL2Size = 256 << 10

// C1InterferenceSizes is the L2-capacity axis of the interference
// section (C1SharedL2Size points come from the scaling section).
var C1InterferenceSizes = []int{64 << 10, 1 << 20}

// C1Grid declares the study over the given axes (tests trim them; the
// registry holds the canonical axes): the scaling section first, then
// private-vs-shared, then interference. l2_bytes is per core on private
// machines, where the L2 miss ratio sums the per-core L2s' counters and
// the memory-bus utilization averages them. Invalidations sums
// write-invalidate events across all levels (zero for this workload).
func C1Grid(cores, contexts, sizes []int) *Figure {
	return &Figure{
		Name: "c1",
		Panels: []Panel{{"c1", "Figure C1: CMP scaling — aggregate IPC vs cores × contexts, shared vs private L2, cross-core interference", View{
			Title: "Figure C1: CMP scaling — aggregate IPC vs cores × contexts, shared vs private L2, cross-core interference",
			Lines: [][]Cell{{
				cell("cores", "cores", str), cell("ctx/core", "contexts", str), cell("L2", "l2_bytes", kb),
				cell("mode", "private", func(v any) string {
					if v.(bool) {
						return "private"
					}
					return "shared"
				}),
				cell("IPC", "ipc", f2), cell("L2 miss", "l2_miss", pct), cell("mem-bus", "mem_bus_util", pct),
				cell("invals", "invalidations", str),
			}},
		}}},
		Columns: []Column{
			{Name: "cores"},
			{Name: "contexts"},
			{Name: "l2_bytes"},
			{Name: "private"},
			{"ipc", ipc},
			{"l2_miss", l2Miss},
			{"mem_bus_util", memBus},
			{"invalidations", func(p *Point) any { _, _, inv := l2Levels(p.rep()); return inv }},
		},
		points: func(b Budget) []*Point {
			var pts []*Point
			add := func(cores, contexts, l2Size int, private bool) {
				kind := "shared"
				m := config.Figure2(contexts).WithCores(cores).
					WithHierarchy(InterferenceDRAMLatency, config.SharedL2(l2Size, 8))
				if private {
					kind = "private"
					m = m.WithPrivateHierarchy()
				}
				pts = append(pts, point(Row{"cores": cores, "contexts": contexts, "l2_bytes": l2Size, "private": private},
					b.mixJob(fmt.Sprintf("c1 cores=%d ctx=%d L2=%dKB %s", cores, contexts, l2Size>>10, kind), m)))
			}
			// Scaling: cores × contexts at the fixed shared L2.
			for _, c := range cores {
				for _, t := range contexts {
					add(c, t, C1SharedL2Size, false)
				}
			}
			if len(contexts) == 0 {
				return pts
			}
			// Private-vs-shared: multi-core points at one context per
			// core (the shared counterparts are the scaling rows above).
			for _, c := range cores {
				if c > 1 {
					add(c, contexts[0], C1SharedL2Size, true)
				}
			}
			// Interference: cores × capacity at one context per core.
			for _, size := range sizes {
				for _, c := range cores {
					add(c, contexts[0], size, false)
				}
			}
			return pts
		},
	}
}
