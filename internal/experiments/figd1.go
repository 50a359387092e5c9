package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/stats"
)

// This file declares the speculative-DAE study (figure D1): how much of
// multithreading's latency tolerance survives when the access slice turns
// speculative. The paper's machine decouples conservatively — loads wait
// for their addresses and control; speculative-DAE proposals (Speculative
// Decoupling, slipstream-style access skipping) hoist a fraction of the
// access slice ahead of resolution, buying prefetch distance at the price
// of squashes, and lose decoupling entirely at hard dependences. The
// study sweeps that trade-off over the paper's context axis:
//
//   - threads × speculation aggressiveness: does SMT's latency hiding
//     subsume the speculative prefetch benefit (the paper's synergy
//     argument), or do the two compose?
//   - loss-of-decoupling rate: periodic forced AP/EP synchronization
//     (the paper's LoD events, here injected at a fixed cadence) — how
//     fast does decoupling's benefit erode per LoD, and does
//     multithreading flatten that erosion too?
//
// Machines are Figure-2 at L2=64 (the mid-latency point where decoupling
// is stressed but not saturated), every context running the benchmark
// mix.

// D1Threads is the context axis.
var D1Threads = []int{1, 2, 4}

// D1SpecFracs is the speculation-aggressiveness axis (fraction of
// access-slice loads hoisted speculatively; 0 is the paper's baseline).
var D1SpecFracs = []float64{0, 0.3, 0.6}

// D1LoDEvery is the loss-of-decoupling axis (forced AP/EP sync every N
// fetched instructions per context; 0 never forces one).
var D1LoDEvery = []int64{0, 500}

// D1MisspecProb is the per-speculative-load misspeculation probability of
// every speculating point (squash penalty: config.DefaultSquashCycles).
const D1MisspecProb = 0.05

// D1L2Latency is the fixed L2 latency of the study.
const D1L2Latency = 64

// D1Grid declares the study over the given axes (tests trim them; the
// registry holds the canonical axes), threads outermost, then
// speculation fraction, then LoD cadence. Besides the raw speculation
// counters of the measurement window, the rows carry them per 1000
// graduated instructions, and the LoD stall fraction: the share of
// context-cycles spent fetch-blocked waiting for the EP queue to drain
// at an LoD event.
func D1Grid(threads []int, fracs []float64, lods []int64) *Figure {
	return &Figure{
		Name: "d1",
		Panels: []Panel{{"d1", "Figure D1: speculative-DAE — IPC vs contexts × speculation aggressiveness × loss-of-decoupling rate (L2=64)", View{
			Title: "Figure D1: speculative-DAE — IPC vs contexts × speculation aggressiveness × loss-of-decoupling rate (L2=64)",
			Lines: [][]Cell{{
				cell("threads", "threads", str), cell("spec-frac", "spec_frac", f2),
				cell("lod-every", "lod_every", func(v any) string {
					if v.(int64) > 0 {
						return fmt.Sprint(v)
					}
					return "never"
				}),
				cell("IPC", "ipc", f2), cell("spec/kI", "spec_per_ki", f1),
				cell("squash/kI", "squash_per_ki", f2), cell("lod-stall", "lod_stall_frac", pct),
			}},
		}}},
		Columns: []Column{
			{Name: "threads"},
			{Name: "spec_frac"},
			{Name: "lod_every"},
			{"ipc", ipc},
			{"spec_loads", func(p *Point) any { return p.rep().SpeculativeLoads }},
			{"squashes", func(p *Point) any { return p.rep().Squashes }},
			{"lod_stalls", func(p *Point) any { return p.rep().LoDStalls }},
			{"spec_per_ki", func(p *Point) any { return perKI(p.rep(), p.rep().SpeculativeLoads) }},
			{"squash_per_ki", func(p *Point) any { return perKI(p.rep(), p.rep().Squashes) }},
			{"lod_stall_frac", func(p *Point) any {
				rep, t := p.rep(), int64(p.At["threads"].(int))
				if rep.Cycles > 0 && t > 0 {
					return float64(rep.LoDStalls) / float64(rep.Cycles*t)
				}
				return 0.0
			}},
		},
		points: func(b Budget) []*Point {
			var pts []*Point
			for _, t := range threads {
				for _, f := range fracs {
					for _, lod := range lods {
						m := config.Figure2(t).WithL2Latency(D1L2Latency)
						if f > 0 || lod > 0 {
							s := config.Speculation{SpecLoadFrac: f, LoDEvery: lod}
							if f > 0 {
								s.MisspecProb = D1MisspecProb
							}
							m = m.WithSpeculation(s)
						}
						pts = append(pts, point(Row{"threads": t, "spec_frac": f, "lod_every": lod},
							b.mixJob(fmt.Sprintf("d1 t=%d spec=%.2f lod=%d", t, f, lod), m)))
					}
				}
			}
			return pts
		},
	}
}

// perKI normalizes a counter per 1000 graduated instructions.
func perKI(rep *stats.Report, n int64) float64 {
	if rep.Graduated <= 0 {
		return 0
	}
	return 1000 * float64(n) / float64(rep.Graduated)
}
