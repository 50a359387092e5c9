package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/stats"
)

// This file declares the shared-L2 interference study (ablation I1),
// the first experiment built on the composable memory hierarchy: the
// Figure-2 machine with its infinite flat L2 replaced by a finite shared
// L2 over DRAM, swept across hardware contexts at several L2 capacities.
// It reproduces the structure of thread-coupling-through-a-shared-cache
// studies (Desai 2023): every context runs its own working set, so as
// contexts are added the per-thread L2 miss ratio climbs at small
// capacities — the threads evict each other — and flattens once the
// cache is large enough to hold the combined working sets.

// InterferenceThreads is the context-count axis (the Figure-3 axis).
var InterferenceThreads = []int{1, 2, 3, 4, 5, 6}

// InterferenceL2Sizes is the canonical L2-capacity axis: an L2 no larger
// than the L1 (pure conflict territory), a middling capacity, and one
// roomy enough that the miss curve flattens.
var InterferenceL2Sizes = []int{64 << 10, 256 << 10, 1 << 20}

// InterferenceDRAMLatency is the fixed DRAM latency behind the L2.
const InterferenceDRAMLatency = 64

// InterferenceGrid declares the study over the given L2 sizes (bytes)
// and context counts (tests trim them; the registry holds the canonical
// axes). Its table stacks three metric lines per L2 size across the
// context axis. The L2 miss ratio is the one each thread experiences:
// primary misses per accepted access at the shared level.
func InterferenceGrid(sizes, threads []int) *Figure {
	lines := [][]Cell{
		{cell("L2 size", "l2_bytes", kb), label("metric", "IPC")},
		{label("", ""), label("", "L2 miss")},
		{label("", ""), label("", "mem-bus")},
	}
	for _, t := range threads {
		head := fmt.Sprintf("%dT", t)
		lines[0] = append(lines[0], cell(head, "ipc", f2, "threads", t))
		lines[1] = append(lines[1], cell(head, "l2_miss", pct, "threads", t))
		lines[2] = append(lines[2], cell(head, "mem_bus_util", pct, "threads", t))
	}
	return &Figure{
		Name: "i1",
		Panels: []Panel{{"i1", "Ablation I1: shared-L2 interference — IPC and per-thread L2 miss ratio vs contexts at several finite L2 sizes (L2+DRAM hierarchy)", View{
			Title: "Ablation I1: shared-L2 interference — IPC and per-thread L2 miss ratio vs contexts (finite L2 + DRAM)",
			By:    []string{"l2_bytes"},
			Lines: lines,
		}}},
		Columns: []Column{
			{Name: "l2_bytes"},
			{Name: "threads"},
			{"ipc", ipc},
			{"l2_miss", l2Miss},
			{"mem_bus_util", memBus},
		},
		points: func(b Budget) []*Point {
			var pts []*Point
			for _, size := range sizes {
				for _, t := range threads {
					m := config.Figure2(t).WithHierarchy(InterferenceDRAMLatency, config.SharedL2(size, 8))
					pts = append(pts, point(Row{"l2_bytes": size, "threads": t},
						b.mixJob(fmt.Sprintf("interference L2=%dKB threads=%d", size>>10, t), m)))
				}
			}
			return pts
		},
	}
}

// l2Levels sums the report's L2 rows — every level that is not a
// per-core L1: the one shared "L2" entry, or the "c<i>.L2" entries of a
// private-hierarchy machine — into a miss ratio and a mean L2↔memory
// bus utilization, and counts invalidations across all levels.
func l2Levels(rep *stats.Report) (miss, bus float64, invalidations int64) {
	var accesses, misses int64
	l2s := 0
	for _, lv := range rep.MemLevels {
		invalidations += lv.Invalidations
		if strings.HasSuffix(lv.Name, ".L1") {
			continue
		}
		accesses += lv.Accesses
		misses += lv.Misses
		bus += lv.BusUtilization
		l2s++
	}
	if accesses > 0 {
		miss = float64(misses) / float64(accesses)
	}
	if l2s > 0 {
		bus /= float64(l2s)
	}
	return miss, bus, invalidations
}

func l2Miss(p *Point) any { miss, _, _ := l2Levels(p.rep()); return miss }
func memBus(p *Point) any { _, bus, _ := l2Levels(p.rep()); return bus }
