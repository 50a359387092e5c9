package experiments

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/config"
)

// This file declares the ablation studies DESIGN.md calls out (A1–A7):
// design choices the paper fixes (or defers to future work) whose impact
// the harness quantifies on the 4-thread Figure-2 machine with the
// benchmark mixes.

// A variant is one labelled machine of an ablation.
type variant struct {
	label string
	m     config.Machine
}

// fig2x4 is the 4-thread Figure-2 machine at L2 latency l2, changed by
// edit.
func fig2x4(l2 int64, edit func(*config.Machine)) config.Machine {
	m := config.Figure2(4).WithL2Latency(l2)
	edit(&m)
	return m
}

// ablation declares a figure that runs one machine per variant. Its
// -fig list line is the table title unless desc is set.
func ablation(key, title, desc string, vs []variant) *Figure {
	if desc == "" {
		desc = title
	}
	return &Figure{
		Name: key,
		Panels: []Panel{{key, desc, View{Title: title, Lines: [][]Cell{{
			cell("config", "config", str), cell("IPC", "ipc", f2),
			cell("bus-util", "bus_util", pct), cell("perceived", "perceived", f1),
		}}}}},
		Columns: []Column{{Name: "config"}, {"ipc", ipc}, {"bus_util", busUtil}, {"perceived", perceived}},
		points: func(b Budget) []*Point {
			pts := make([]*Point, len(vs))
			for i, v := range vs {
				pts[i] = point(Row{"config": v.label}, b.mixJob(fmt.Sprintf("%s [%s]", title, v.label), v.m))
			}
			return pts
		},
	}
}

// ablationA1 quantifies the paper's deferred idea (§3.1): the AP
// saturates before the EP because of the instruction-mix imbalance, so a
// wider AP should raise the effective peak.
var ablationA1 = func() *Figure {
	var vs []variant
	for _, w := range [][2]int{{4, 4}, {5, 3}, {6, 4}, {4, 6}, {6, 6}} {
		vs = append(vs, variant{fmt.Sprintf("AP=%d EP=%d", w[0], w[1]),
			fig2x4(16, func(m *config.Machine) { m.APWidth, m.EPWidth = w[0], w[1] })})
	}
	return ablation("a1", "Ablation A1: per-unit issue widths (4 threads, L2=16)", "", vs)
}()

// ablationA2 compares ICOUNT with plain round-robin fetch.
var ablationA2 = ablation("a2", "Ablation A2: fetch policy (4 threads, L2=16)",
	"Ablation A2: ICOUNT vs round-robin fetch (4 threads, L2=16)", []variant{
		{"ICOUNT", config.Figure2(4)},
		{"round-robin", fig2x4(16, func(m *config.Machine) { m.FetchPolicy = config.FetchRoundRobin })},
	})

// ablationA3 sweeps L1 associativity (the paper's cache is direct-mapped;
// higher ways cut the cross-thread conflicts that grow with context
// count).
var ablationA3 = func() *Figure {
	var vs []variant
	for _, assoc := range []int{1, 2, 4} {
		vs = append(vs, variant{fmt.Sprintf("%d-way", assoc),
			fig2x4(16, func(m *config.Machine) { m.Mem.L1.Assoc = assoc })})
	}
	return ablation("a3", "Ablation A3: L1 associativity (4 threads, L2=16)", "", vs)
}()

// ablationA4 toggles SAQ store→load forwarding (the paper's SAQ only lets
// loads bypass non-conflicting stores).
var ablationA4 = ablation("a4", "Ablation A4: SAQ store-to-load forwarding (4 threads, L2=16)", "", []variant{
	{"bypass only (paper)", config.Figure2(4)},
	{"forwarding", fig2x4(16, func(m *config.Machine) { m.StoreForwarding = true })},
})

// ablationA5 sweeps MSHR count and bus width around the Figure-2 design
// point.
var ablationA5 = func() *Figure {
	var vs []variant
	for _, mshrs := range []int{4, 8, 16, 32} {
		vs = append(vs, variant{fmt.Sprintf("MSHRs/thread=%d bus=16B", mshrs),
			fig2x4(64, func(m *config.Machine) { m.MSHRsPerThread = mshrs })})
	}
	for _, busB := range []int{8, 32} {
		vs = append(vs, variant{fmt.Sprintf("MSHRs/thread=16 bus=%dB", busB),
			fig2x4(64, func(m *config.Machine) { m.Mem.BusBytesPerCycle = busB })})
	}
	return ablation("a5", "Ablation A5: memory-system sizing (4 threads, L2=64)",
		"Ablation A5: MSHR count and bus width (4 threads, L2=64)", vs)
}()

// ablationA6 contrasts fixed Figure-2 queue/MSHR sizes with the
// latency-proportional scaling rule at a large L2 latency — the
// interpretation difference discussed in DESIGN.md.
var ablationA6 = ablation("a6", "Ablation A6: fixed vs latency-scaled buffering (4 threads, L2=256)", "", []variant{
	{"fixed Figure-2 sizes", fig2x4(256, func(*config.Machine) {})},
	{"scaled (Section-2 rule)", fig2x4(256, func(m *config.Machine) { m.ScaleWithLatency = true })},
})

// ablationA7 compares the paper's round-robin issue priority with
// oldest-first, and the 2-bit BHT with gshare and static predictors.
var ablationA7 = func() *Figure {
	vs := []variant{
		{"issue=RR pred=BHT (paper)", config.Figure2(4)},
		{"issue=oldest pred=BHT", fig2x4(16, func(m *config.Machine) { m.IssuePolicy = config.IssueOldestFirst })},
	}
	for _, kind := range []branch.Kind{branch.KindGshare, branch.KindTaken, branch.KindNotTaken} {
		vs = append(vs, variant{fmt.Sprintf("issue=RR pred=%s", kind),
			fig2x4(16, func(m *config.Machine) { m.Predictor = kind })})
	}
	return ablation("a7", "Ablation A7: issue priority and branch predictor (4 threads, L2=16)", "", vs)
}()
