// Package stats collects and reports the metrics the paper evaluates:
//
//   - IPC (graduated instructions per cycle);
//   - the issue-slot breakdown of Figure 3 — for each unit (AP, EP), each
//     issue slot per cycle is either useful work or wasted for one of four
//     reasons: waiting for an operand from memory, waiting for an operand
//     from a functional unit, other (structural) hazards, or wrong-path/
//     idle (no instruction available);
//   - the perceived load-miss latency of Figures 1 and 4 — one sample per
//     L1-missing load, the number of cycles its first consumer stalled at
//     the head of its issue stream (0 when decoupling delivered the data
//     in time), separated into FP and integer loads by the destination
//     register file;
//   - memory system counters (miss ratios, write-backs, bus utilization)
//     and branch prediction accuracy.
package stats

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/mem"
)

// WasteReason classifies a wasted issue slot (paper Figure 3 legend).
type WasteReason uint8

const (
	// WasteIdle: no instruction available to issue — fetch starvation,
	// mispredict recovery ("wrong-path instr. or idle" in the paper).
	WasteIdle WasteReason = iota
	// WasteMem: the stream head waits for an operand produced by an
	// in-flight load that missed in L1.
	WasteMem
	// WasteFU: the stream head waits for an operand still in a functional
	// unit pipeline (or an in-flight load hit).
	WasteFU
	// WasteOther: structural hazards — FU/port/MSHR/queue conflicts and
	// cross-unit program-order constraints in the non-decoupled machine.
	WasteOther
	numWasteReasons
)

// NumWasteReasons is the number of waste categories.
const NumWasteReasons = int(numWasteReasons)

func (w WasteReason) String() string {
	switch w {
	case WasteIdle:
		return "wrong-path/idle"
	case WasteMem:
		return "wait-memory"
	case WasteFU:
		return "wait-FU"
	case WasteOther:
		return "other"
	default:
		return fmt.Sprintf("waste(%d)", uint8(w))
	}
}

// UnitSlots aggregates issue-slot accounting for one processing unit.
type UnitSlots struct {
	// Issued counts slots that did useful work.
	Issued int64
	// Wasted[reason] accumulates wasted slots; fractional because a
	// cycle's wasted slots are split across the blocked threads' reasons.
	Wasted [NumWasteReasons]float64
	// Total is the number of slot-cycles offered (width × cycles).
	Total int64
}

// UsefulFrac returns the fraction of slots that issued instructions.
func (u UnitSlots) UsefulFrac() float64 {
	if u.Total == 0 {
		return 0
	}
	return float64(u.Issued) / float64(u.Total)
}

// WastedFrac returns the fraction of slots wasted for the given reason.
func (u UnitSlots) WastedFrac(r WasteReason) float64 {
	if u.Total == 0 {
		return 0
	}
	return u.Wasted[r] / float64(u.Total)
}

// LatencySample accumulates perceived-latency samples.
type LatencySample struct {
	Count int64
	Sum   int64
}

// Add records one sample.
func (l *LatencySample) Add(cycles int64) {
	l.Count++
	l.Sum += cycles
}

// Mean returns the average sample (0 when empty).
func (l LatencySample) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Sum) / float64(l.Count)
}

// Merge folds another sample set into l.
func (l *LatencySample) Merge(o LatencySample) {
	l.Count += o.Count
	l.Sum += o.Sum
}

// Collector accumulates all run metrics. The zero value is ready to use;
// Reset clears it between the warm-up and measurement windows.
type Collector struct {
	// Cycles is the number of simulated cycles in the window.
	Cycles int64
	// Graduated is the number of instructions retired in the window.
	Graduated int64
	// GraduatedByOp breaks retirement down by operation class.
	GraduatedByOp [isa.NumOps]int64

	// Slots is the per-unit issue slot accounting.
	Slots [isa.NumUnits]UnitSlots

	// PerceivedFP and PerceivedInt are the perceived load-miss latency
	// samples for FP-destined and integer-destined loads.
	PerceivedFP, PerceivedInt LatencySample

	// Branches and Mispredicts count resolved conditional branches.
	Branches, Mispredicts int64

	// FetchedInsts counts instructions brought in by the fetch stage.
	FetchedInsts int64
	// DispatchStalls counts thread-cycles dispatch stopped on a full
	// resource (ROB, registers, queues).
	DispatchStalls int64
	// LoadConflictStalls counts cycles loads waited on an older SAQ store
	// with a matching address.
	LoadConflictStalls int64
	// StoreForwards counts loads satisfied by SAQ forwarding (ablation).
	StoreForwards int64

	// SpeculativeLoads, Squashes and LoDStalls instrument the
	// speculative-DAE extension (config.Speculation): loads hoisted
	// speculatively into the access slice, speculative loads that
	// misspeculated and squashed their thread's fetch stream, and
	// context-cycles fetch held at a loss-of-decoupling event waiting
	// for the execute queue to drain. All zero — and omitted from the
	// JSON encoding, pinning every non-speculative report hash — when
	// the extension is off.
	SpeculativeLoads int64 `json:",omitempty"`
	Squashes         int64 `json:",omitempty"`
	LoDStalls        int64 `json:",omitempty"`
}

// Reset zeroes the collector.
func (c *Collector) Reset() { *c = Collector{} }

// MergeCore folds another core's collector into c for CMP aggregate
// reporting: every counter sums, except Cycles — the cores tick in
// lockstep, so their cycle counts are identical and c keeps its own.
// Merge in fixed core order: the waste buckets are floats and summation
// order must be deterministic.
func (c *Collector) MergeCore(o *Collector) {
	c.Graduated += o.Graduated
	for i := range c.GraduatedByOp {
		c.GraduatedByOp[i] += o.GraduatedByOp[i]
	}
	for u := range c.Slots {
		c.Slots[u].Issued += o.Slots[u].Issued
		c.Slots[u].Total += o.Slots[u].Total
		for r := range c.Slots[u].Wasted {
			c.Slots[u].Wasted[r] += o.Slots[u].Wasted[r]
		}
	}
	c.PerceivedFP.Merge(o.PerceivedFP)
	c.PerceivedInt.Merge(o.PerceivedInt)
	c.Branches += o.Branches
	c.Mispredicts += o.Mispredicts
	c.FetchedInsts += o.FetchedInsts
	c.DispatchStalls += o.DispatchStalls
	c.LoadConflictStalls += o.LoadConflictStalls
	c.StoreForwards += o.StoreForwards
	c.SpeculativeLoads += o.SpeculativeLoads
	c.Squashes += o.Squashes
	c.LoDStalls += o.LoDStalls
}

// IPC returns graduated instructions per cycle.
func (c *Collector) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Graduated) / float64(c.Cycles)
}

// MispredictRate returns mispredicted branches / resolved branches.
func (c *Collector) MispredictRate() float64 {
	if c.Branches == 0 {
		return 0
	}
	return float64(c.Mispredicts) / float64(c.Branches)
}

// Perceived returns the combined (FP + integer) perceived-latency sample.
func (c *Collector) Perceived() LatencySample {
	s := c.PerceivedFP
	s.Merge(c.PerceivedInt)
	return s
}

// Report is an immutable snapshot of a finished run, including the memory
// subsystem counters captured at the end of the measurement window.
type Report struct {
	Collector
	Mem mem.Stats
	// BusUtilization is the fraction of measured cycles the L1's
	// downstream bus was busy.
	BusUtilization float64
	// Threads and L2Latency identify the configuration for table output.
	Threads   int
	Decoupled bool
	L2Latency int64
	// MemLevels reports the shared cache levels of a finite hierarchy
	// (per-level counters and downstream-bus utilization, top-down from
	// the L2). Nil for the default flat-L2 model — and omitted from the
	// JSON encoding, so default-model report hashes are unchanged.
	// On CMP machines the per-core private L1s lead the list (named
	// "c<i>.L1", carrying the coherence counters), followed by the
	// interconnect-owned levels.
	MemLevels []mem.LevelStats `json:",omitempty"`
	// Cores is the CMP core count; 0 (omitted, pinning single-core
	// report encodings) on the paper's single-core machine. Collector
	// counters and Mem are then aggregates over the cores, and Threads
	// is contexts per core.
	Cores int `json:",omitempty"`
	// PerCoreGraduated breaks retirement down by core on CMP machines
	// (nil on single-core machines).
	PerCoreGraduated []int64 `json:",omitempty"`
	// Sampled summarizes the per-unit IPC samples of a sampled-mode run
	// (mean, 95% confidence half-width, unit count). Nil — and omitted
	// from the JSON encoding, pinning exact-mode report hashes — for
	// exact runs, whose counters cover every instruction.
	Sampled *Sampled `json:",omitempty"`
}

// String renders a human-readable multi-line summary.
func (r Report) String() string {
	var b strings.Builder
	mode := "decoupled"
	if !r.Decoupled {
		mode = "non-decoupled"
	}
	memDesc := fmt.Sprintf("L2=%d", r.L2Latency)
	if len(r.MemLevels) > 0 {
		memDesc = "mem=hierarchy"
	}
	if r.Cores > 1 {
		fmt.Fprintf(&b, "cores=%d ", r.Cores)
	}
	fmt.Fprintf(&b, "threads=%d mode=%s %s cycles=%d insts=%d IPC=%.3f\n",
		r.Threads, mode, memDesc, r.Cycles, r.Graduated, r.IPC())
	if s := r.Sampled; s != nil {
		fmt.Fprintf(&b, "sampled: IPC=%.3f ±%.3f (95%% CI, %d units, %d insts warped)\n",
			s.Mean, s.CI, s.Units, s.WarpedInsts)
	}
	fmt.Fprintf(&b, "perceived load-miss latency: fp=%.2f (n=%d) int=%.2f (n=%d) all=%.2f\n",
		r.PerceivedFP.Mean(), r.PerceivedFP.Count,
		r.PerceivedInt.Mean(), r.PerceivedInt.Count,
		r.Perceived().Mean())
	fmt.Fprintf(&b, "branches: %d mispredict=%.2f%%\n", r.Branches, 100*r.MispredictRate())
	if r.SpeculativeLoads > 0 || r.Squashes > 0 || r.LoDStalls > 0 {
		fmt.Fprintf(&b, "speculation: spec-loads=%d squashes=%d lod-stalls=%d\n",
			r.SpeculativeLoads, r.Squashes, r.LoDStalls)
	}
	fmt.Fprintf(&b, "L1: load-miss=%.2f%% store-miss=%.2f%% writebacks=%d bus-util=%.1f%%\n",
		100*r.Mem.LoadMissRatio(), 100*r.Mem.StoreMissRatio(), r.Mem.Writebacks, 100*r.BusUtilization)
	for _, lv := range r.MemLevels {
		fmt.Fprintf(&b, "%s: miss=%.2f%% secondary=%d write-allocs=%d writebacks=%d bus-util=%.1f%%\n",
			lv.Name, 100*lv.MissRatio(), lv.SecondaryMisses, lv.WriteAllocates, lv.Writebacks, 100*lv.BusUtilization)
	}
	for u := 0; u < isa.NumUnits; u++ {
		s := r.Slots[u]
		fmt.Fprintf(&b, "%s slots: useful=%.1f%% mem=%.1f%% fu=%.1f%% other=%.1f%% idle=%.1f%%\n",
			isa.Unit(u),
			100*s.UsefulFrac(),
			100*s.WastedFrac(WasteMem),
			100*s.WastedFrac(WasteFU),
			100*s.WastedFrac(WasteOther),
			100*s.WastedFrac(WasteIdle))
	}
	return b.String()
}

// InstMix returns the fraction of graduated instructions in each class.
func (r Report) InstMix() [isa.NumOps]float64 {
	var mix [isa.NumOps]float64
	if r.Graduated == 0 {
		return mix
	}
	for i := range mix {
		mix[i] = float64(r.GraduatedByOp[i]) / float64(r.Graduated)
	}
	return mix
}
