package experiments

// This file declares the paper's own figures: 1, 3, 4 and 5.

import (
	"cmp"
	"fmt"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fig1 reproduces the paper's Figure 1: the latency-hiding effectiveness
// of single-threaded decoupling on the Section-2 machine, per benchmark,
// across L2 latencies 1–256 (queues and register files scaled
// proportionally to latency, per the paper).
var fig1 = &Figure{
	Name:  "fig1",
	Group: "1",
	Panels: []Panel{
		{"1a", "Figure 1-a: average perceived FP-load miss latency vs L2 latency (Section-2 machine)",
			fig1Pivot("Figure 1-a: average perceived FP-load miss latency (cycles)", "perceived_fp", f1)},
		{"1b", "Figure 1-b: average perceived integer-load miss latency vs L2 latency",
			fig1Pivot("Figure 1-b: average perceived integer-load miss latency (cycles)", "perceived_int", f1)},
		{"1c", "Figure 1-c: per-benchmark L1 miss ratios at L2 latency 256", View{
			Title: "Figure 1-c: L1 miss ratios (L2 latency = 256)",
			By:    []string{"benchmark"},
			Lines: [][]Cell{{cell("benchmark", "benchmark", str),
				cell("load-miss", "load_miss", pct), cell("store-miss", "store_miss", pct)}},
		}},
		{"1d", "Figure 1-d: IPC loss vs L2 latency, relative to the 1-cycle point",
			fig1Pivot("Figure 1-d: IPC loss relative to L2 latency 1", "ipc_loss", pct)},
	},
	Columns: []Column{
		{Name: "benchmark"},
		{Name: "l2"},
		{"perceived_fp", func(p *Point) any { return p.rep().PerceivedFP.Mean() }},
		{"perceived_int", func(p *Point) any { return p.rep().PerceivedInt.Mean() }},
		{"ipc", ipc},
		{"ipc_loss", ipcLoss},
		// The miss ratios are Figure 1-c's, measured at the last point
		// of the series (L2 = 256) and repeated on every row.
		{"load_miss", func(p *Point) any { return p.Series[len(p.Series)-1].rep().Mem.LoadMissRatio() }},
		{"store_miss", func(p *Point) any { return p.Series[len(p.Series)-1].rep().Mem.StoreMissRatio() }},
	},
	points: func(b Budget) []*Point {
		var pts []*Point
		for _, bench := range workload.Names() {
			for _, lat := range PaperLatencies {
				pts = append(pts, point(Row{"benchmark": bench, "l2": lat}, b.benchJob(
					fmt.Sprintf("fig1 %s L2=%d", bench, lat), config.Section2().WithL2Latency(lat), bench)))
			}
		}
		return series(pts, len(PaperLatencies))
	},
}

// fig1Pivot views one column as a benchmark × L2 grid.
func fig1Pivot(title, col string, f func(any) string) View {
	return l2Pivot(title, []string{"benchmark"}, cell("benchmark", "benchmark", str), col, f)
}

// l2Pivot views one column as a grid: a line per series (the By
// columns, labelled by lead), a cell per L2 latency.
func l2Pivot(title string, by []string, lead Cell, col string, f func(any) string) View {
	cells := []Cell{lead}
	for _, l := range PaperLatencies {
		cells = append(cells, cell(fmt.Sprintf("L2=%d", l), col, f, "l2", l))
	}
	return View{Title: title, By: by, Lines: [][]Cell{cells}}
}

// ipcLoss is the IPC change relative to the first point of the series
// (the L2 = 1 point).
func ipcLoss(p *Point) any {
	base := p.Series[0].rep().IPC()
	if base <= 0 {
		return 0.0
	}
	return (p.rep().IPC() - base) / base
}

// Fig3Threads is the paper's Figure-3 x-axis.
var Fig3Threads = []int{1, 2, 3, 4, 5, 6}

// fig3 reproduces the paper's Figure 3: the issue-slot breakdown of the
// multithreaded decoupled machine (Figure-2 parameters, L2 = 16) as
// hardware contexts are added, on the per-thread benchmark mixes. Each
// run gives two rows, one per unit.
var fig3 = &Figure{
	Name: "fig3",
	Panels: []Panel{{"3", "Figure 3: AP/EP issue-slot breakdown vs hardware contexts (L2=16)", View{
		Title: "Figure 3: issue-slot breakdown vs hardware contexts (L2=16, decoupled)",
		By:    []string{"threads"},
		Lines: [][]Cell{fig3Cells()},
		Footer: func(r *Result) string {
			speedup := 0.0
			if base := r.Float("ipc", "threads", 1); base != 0 {
				speedup = r.Float("ipc", "threads", 3) / base
			}
			return fmt.Sprintf("speedup 1→3 threads: %.2fx (paper: 2.31x)\n", speedup)
		},
	}}},
	Columns: []Column{
		{Name: "threads"},
		{"ipc", ipc},
		{Name: "unit"},
		{"useful", func(p *Point) any { return unitSlots(p).UsefulFrac() }},
		{"wait_mem", wasted(stats.WasteMem)},
		{"wait_fu", wasted(stats.WasteFU)},
		{"other", wasted(stats.WasteOther)},
		{"idle", wasted(stats.WasteIdle)},
	},
	points: func(b Budget) []*Point {
		var pts []*Point
		for _, t := range Fig3Threads {
			job := b.mixJob(fmt.Sprintf("fig3 threads=%d", t), config.Figure2(t))
			pts = append(pts, point(Row{"threads": t, "unit": isa.AP}, job), point(Row{"threads": t, "unit": isa.EP}, job))
		}
		return pts
	},
}

// fig3Cells lays out the five activity categories of both units.
func fig3Cells() []Cell {
	cells := []Cell{cell("threads", "threads", str), cell("IPC", "ipc", f2)}
	for _, u := range []isa.Unit{isa.AP, isa.EP} {
		for _, c := range [][2]string{{"useful", "useful"}, {"mem", "wait_mem"}, {"fu", "wait_fu"}, {"other", "other"}, {"idle", "idle"}} {
			cells = append(cells, cell(fmt.Sprintf("%v %s", u, c[0]), c[1], pct, "unit", u))
		}
	}
	return cells
}

func unitSlots(p *Point) stats.UnitSlots { return p.rep().Slots[p.At["unit"].(isa.Unit)] }

func wasted(cat stats.WasteReason) func(*Point) any {
	return func(p *Point) any { return unitSlots(p).WastedFrac(cat) }
}

// Fig4Config identifies one line of Figure 4.
type Fig4Config struct {
	Threads   int
	Decoupled bool
}

func (c Fig4Config) String() string {
	mode := "decoupled"
	if !c.Decoupled {
		mode = "non-dec"
	}
	return fmt.Sprintf("%dT %s", c.Threads, mode)
}

// Fig4Configs is the paper's eight configurations, non-decoupled first
// (matching the figure legend's top-to-bottom order).
var Fig4Configs = []Fig4Config{
	{4, false}, {3, false}, {2, false}, {1, false},
	{4, true}, {3, true}, {2, true}, {1, true},
}

// fig4 reproduces the paper's Figure 4: memory-latency tolerance of the
// eight configurations {1..4 threads} × {decoupled, non-decoupled}
// across L2 latencies 1–256, on the per-thread benchmark mixes.
//
// Interpretation note (see DESIGN.md): the architectural queues, register
// files and the lockup-free miss capacity scale proportionally with the
// L2 latency, as in the paper's Section 2 — with the Figure-2 sizes held
// fixed, Little's law caps memory-level parallelism at 16 outstanding
// lines and no configuration can approach the paper's large-latency
// points. The fixed-size variant is available as ablation A6.
var fig4 = &Figure{
	Name:  "fig4",
	Group: "4",
	Panels: []Panel{
		{"4a", "Figure 4-a: perceived load-miss latency vs L2 latency, 4 configurations",
			fig4Pivot("Figure 4-a: perceived load-miss latency (cycles)", "perceived", f1)},
		{"4b", "Figure 4-b: IPC loss vs L2 latency, 4 configurations",
			fig4Pivot("Figure 4-b: IPC loss relative to L2 latency 1", "ipc_loss", pct)},
		{"4c", "Figure 4-c: absolute IPC vs L2 latency, 4 configurations",
			fig4Pivot("Figure 4-c: IPC", "ipc", f2)},
	},
	Columns: []Column{
		{Name: "threads"},
		{Name: "decoupled"},
		{Name: "l2"},
		{"perceived", perceived},
		{"ipc", ipc},
		{"ipc_loss", ipcLoss},
	},
	points: func(b Budget) []*Point {
		var pts []*Point
		for _, c := range Fig4Configs {
			for _, lat := range PaperLatencies {
				m := config.Figure2(c.Threads).WithL2Latency(lat)
				m.ScaleWithLatency = true
				if !c.Decoupled {
					m = m.NonDecoupled()
				}
				pts = append(pts, point(Row{"threads": c.Threads, "decoupled": c.Decoupled, "l2": lat},
					b.mixJob(fmt.Sprintf("fig4 %v L2=%d", c, lat), m)))
			}
		}
		return series(pts, len(PaperLatencies))
	},
}

// fig4Pivot views one column as a configuration × L2 grid.
func fig4Pivot(title, col string, f func(any) string) View {
	config := Cell{Head: "config", Text: func(r Row) string {
		return Fig4Config{r["threads"].(int), r["decoupled"].(bool)}.String()
	}}
	return l2Pivot(title, []string{"threads", "decoupled"}, config, col, f)
}

// Fig5ThreadsShort and Fig5ThreadsLong are the paper's Figure-5 axes.
var (
	Fig5ThreadsShort = []int{1, 2, 3, 4, 5, 6, 7}
	Fig5ThreadsLong  = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
)

// fig5 reproduces the paper's Figure 5: hardware-context requirements of
// the decoupled and non-decoupled machines at L2 latencies 16 (1–7
// threads, solid lines) and 64 (1–16 threads, dotted lines), plus the
// external-bus utilization that explains why the non-decoupled machine
// saturates at L2 = 64 (89% at 12 threads, 98% at 16 in the paper). Bus
// utilization is only recorded for the L2 = 64 curves.
var fig5 = &Figure{
	Name: "fig5",
	Panels: []Panel{{"5", "Figure 5: IPC vs contexts at L2 16/64 — decoupling cuts thread requirements", View{
		Title: "Figure 5: IPC vs hardware contexts (decoupling reduces thread requirements)",
		By:    []string{"threads"},
		Lines: [][]Cell{{
			cell("threads", "threads", str),
			cell("L2=16 dec", "ipc", f2, "l2", 16, "decoupled", true),
			cell("L2=16 non-dec", "ipc", f2, "l2", 16, "decoupled", false),
			cell("L2=64 dec", "ipc", f2, "l2", 64, "decoupled", true),
			cell("L2=64 non-dec", "ipc", f2, "l2", 64, "decoupled", false),
			cell("bus64 dec", "bus_util", pct, "l2", 64, "decoupled", true),
			cell("bus64 non-dec", "bus_util", pct, "l2", 64, "decoupled", false),
		}},
	}}},
	Columns: []Column{
		{Name: "l2"},
		{Name: "decoupled"},
		{Name: "threads"},
		{"ipc", ipc},
		{"bus_util", func(p *Point) any {
			if p.At["l2"] == 16 {
				return nil
			}
			return p.rep().BusUtilization
		}},
	},
	// The sweep runs both machines side by side per thread count; the
	// rows list each curve whole, decoupled first.
	points: func(b Budget) []*Point {
		var pts []*Point
		for _, axis := range []struct {
			l2      int
			threads []int
		}{{16, Fig5ThreadsShort}, {64, Fig5ThreadsLong}} {
			for _, t := range axis.threads {
				for _, dec := range []bool{true, false} {
					m := config.Figure2(t).WithL2Latency(int64(axis.l2))
					if !dec {
						m = m.NonDecoupled()
					}
					pts = append(pts, point(Row{"l2": axis.l2, "decoupled": dec, "threads": t},
						b.mixJob(fmt.Sprintf("fig5 threads=%d L2=%d dec=%v", t, axis.l2, dec), m)))
				}
			}
		}
		return pts
	},
	order: func(a, b *Point) int {
		return cmp.Or(cmp.Compare(a.At["l2"].(int), b.At["l2"].(int)),
			cmp.Compare(fmt.Sprint(b.At["decoupled"]), fmt.Sprint(a.At["decoupled"])))
	},
}

// PeakThreads returns the smallest thread count whose IPC is within tol
// of the series' maximum — "threads needed to reach peak".
func PeakThreads(threads []int, ipc []float64, tol float64) int {
	peak := 0.0
	for _, v := range ipc {
		peak = max(peak, v)
	}
	for i, v := range ipc {
		if v >= peak*(1-tol) {
			return threads[i]
		}
	}
	return threads[len(threads)-1]
}
