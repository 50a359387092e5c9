package sim

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/traceio"
	"repro/internal/workload"
)

func finiteTrace(n int) trace.Reader {
	insts := make([]isa.Inst, 0, n)
	for i := 0; i < n; i++ {
		insts = append(insts, isa.Inst{
			PC: uint64(i % 16 * 4), Op: isa.OpIntALU,
			Dest: isa.IntReg(1 + i%8), Src1: isa.IntReg(9), Src2: isa.IntReg(10),
		})
	}
	return trace.Slice(insts)
}

func TestRunDrainsFiniteTrace(t *testing.T) {
	res, err := Run(context.Background(), Options{
		Machine: config.Figure2(1),
		Sources: []trace.Reader{finiteTrace(5000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("finite trace did not complete")
	}
	if res.Report.Graduated != 5000 {
		t.Fatalf("graduated %d, want 5000", res.Report.Graduated)
	}
	if res.Report.IPC() <= 0 {
		t.Fatal("IPC not positive")
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	res, err := Run(context.Background(), Options{
		Machine:     config.Figure2(1),
		Sources:     []trace.Reader{finiteTrace(5000)},
		WarmupInsts: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Graduated != 3000 {
		t.Fatalf("measured %d instructions, want 3000 after warmup", res.Report.Graduated)
	}
	// Total simulated cycles include the warm-up.
	if res.TotalCycles <= res.Report.Cycles {
		t.Fatal("total cycles do not include warm-up")
	}
}

func TestMeasureWindowStopsEarly(t *testing.T) {
	b, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Options{
		Machine:      config.Figure2(1),
		Sources:      []trace.Reader{b.NewReader(workload.ReaderOpts{})},
		WarmupInsts:  5_000,
		MeasureInsts: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("bounded run on an infinite source did not complete")
	}
	// The measurement window stops within a cycle's graduation bandwidth
	// of the target.
	if res.Report.Graduated < 20_000 || res.Report.Graduated > 20_000+64 {
		t.Fatalf("measured %d instructions", res.Report.Graduated)
	}
}

func TestCycleCapReported(t *testing.T) {
	b, _ := workload.ByName("swim")
	res, err := Run(context.Background(), Options{
		Machine:      config.Figure2(1),
		Sources:      []trace.Reader{b.NewReader(workload.ReaderOpts{})},
		MeasureInsts: 1 << 40, // unreachable
		MaxCycles:    2_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("cycle-capped run claimed completion")
	}
	if res.TotalCycles > 2_001 {
		t.Fatalf("ran %d cycles past the cap", res.TotalCycles)
	}
}

func TestInvalidMachineRejected(t *testing.T) {
	m := config.Figure2(1)
	m.ROBSize = 0
	if _, err := Run(context.Background(), Options{Machine: m, Sources: []trace.Reader{finiteTrace(1)}}); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestSourceCountMismatchRejected(t *testing.T) {
	if _, err := Run(context.Background(), Options{
		Machine: config.Figure2(2),
		Sources: []trace.Reader{finiteTrace(1)},
	}); err == nil {
		t.Fatal("source/thread mismatch accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Result {
		b, _ := workload.ByName("su2cor")
		res, err := Run(context.Background(), Options{
			Machine:      config.Figure2(2).WithL2Latency(64),
			Sources:      []trace.Reader{b.NewReader(workload.ReaderOpts{}), b.NewReader(workload.ReaderOpts{AddrOffset: 1 << 36})},
			WarmupInsts:  5_000,
			MeasureInsts: 30_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Report.Cycles != b.Report.Cycles ||
		a.Report.Graduated != b.Report.Graduated ||
		a.Report.PerceivedFP != b.Report.PerceivedFP ||
		a.Report.Mem != b.Report.Mem {
		t.Fatal("identical runs produced different reports")
	}
}

func TestReportIdentifiesConfiguration(t *testing.T) {
	m := config.Figure2(2).WithL2Latency(128).NonDecoupled()
	b, _ := workload.ByName("mgrid")
	res, err := Run(context.Background(), Options{
		Machine: m,
		Sources: []trace.Reader{
			b.NewReader(workload.ReaderOpts{}),
			b.NewReader(workload.ReaderOpts{AddrOffset: 1 << 36}),
		},
		WarmupInsts:  2_000,
		MeasureInsts: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Threads != 2 || r.Decoupled || r.L2Latency != 128 {
		t.Fatalf("report identity wrong: %+v", r)
	}
	if r.BusUtilization < 0 || r.BusUtilization > 1 {
		t.Fatalf("bus utilization %v out of range", r.BusUtilization)
	}
}

func TestTraceFileRoundTripThroughSimulator(t *testing.T) {
	// Generate a trace, encode it to a trace container, decode it, and
	// verify the simulator produces *identical* results from the
	// generator and from the file — the cmd/dae-trace → cmd/dae-sim
	// pipeline at library level.
	b, err := workload.ByName("applu")
	if err != nil {
		t.Fatal(err)
	}
	const n = 40_000

	var buf bytes.Buffer
	w, err := traceio.NewWriter(&buf, traceio.Header{Streams: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendAll(0, trace.Limit(b.NewReader(workload.ReaderOpts{}), n)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, streams, err := traceio.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}

	run := func(src trace.Reader) Result {
		res, err := Run(context.Background(), Options{
			Machine:     config.Figure2(1),
			Sources:     []trace.Reader{src},
			WarmupInsts: 5_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fromFile := run(trace.Slice(streams[0]))
	fromGen := run(trace.Limit(b.NewReader(workload.ReaderOpts{}), n))
	if fromFile.Report.Cycles != fromGen.Report.Cycles ||
		fromFile.Report.Graduated != fromGen.Report.Graduated ||
		fromFile.Report.Mem != fromGen.Report.Mem {
		t.Fatalf("file-driven run differs from generator-driven run:\n%v\nvs\n%v",
			fromFile.Report, fromGen.Report)
	}
	// The warm-up window can overshoot by up to one cycle's graduation
	// bandwidth before the reset, so allow a small shortfall.
	if g := fromFile.Report.Graduated; g < n-5_000-64 || g > n-5_000 {
		t.Fatalf("graduated %d", g)
	}
}

func TestRunObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, Options{
		Machine:      config.Figure2(1),
		Sources:      workload.MixSources(1, workload.MixOpts{}),
		WarmupInsts:  1_000,
		MeasureInsts: 500_000_000, // only cancellation ends this quickly
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestRunStreamsProgressSnapshots(t *testing.T) {
	var snaps []Snapshot
	res, err := Run(context.Background(), Options{
		Machine:       config.Figure2(1),
		Sources:       workload.MixSources(1, workload.MixOpts{}),
		WarmupInsts:   3_000,
		MeasureInsts:  9_000,
		OnProgress:    func(s Snapshot) { snaps = append(snaps, s) },
		ProgressEvery: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 5 {
		t.Fatalf("%d snapshots for a 12k-inst run at 1k cadence", len(snaps))
	}
	var warm, meas int
	lastPhase := ""
	var lastGrad int64
	for _, s := range snaps {
		switch s.Phase {
		case PhaseWarmup:
			warm++
			if lastPhase == PhaseMeasure {
				t.Fatal("warm-up snapshot after measurement began")
			}
			if s.TargetInsts != 3_000 {
				t.Fatalf("warm-up target %d", s.TargetInsts)
			}
		case PhaseMeasure:
			meas++
			if s.TargetInsts != 9_000 {
				t.Fatalf("measure target %d", s.TargetInsts)
			}
		default:
			t.Fatalf("unknown phase %q", s.Phase)
		}
		if s.Phase == lastPhase && s.Graduated < lastGrad {
			t.Fatal("graduated count not monotonic within a phase")
		}
		lastPhase, lastGrad = s.Phase, s.Graduated
	}
	if warm == 0 || meas == 0 {
		t.Fatalf("phases not both sampled: %d warm-up, %d measure snapshots", warm, meas)
	}
	final := snaps[len(snaps)-1]
	if final.Graduated != res.Report.Graduated {
		t.Fatalf("final snapshot graduated %d, report says %d", final.Graduated, res.Report.Graduated)
	}
	// The hook observes but never mutates: results with and without
	// progress enabled are identical.
	plain, err := Run(context.Background(), Options{
		Machine:      config.Figure2(1),
		Sources:      workload.MixSources(1, workload.MixOpts{}),
		WarmupInsts:  3_000,
		MeasureInsts: 9_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Fatal("enabling progress snapshots changed the result")
	}
}

// TestRepeatedRunsRetainBoundedMemory: re-running a seed, as sweeps and
// servers do, keeps at most the interner's bounded prefix of the stream
// alive. A 1T sampled run of 2M instructions runs twice on one seed; a
// copy of the whole stream kept between the runs would hold ~48 MB of
// live heap, and the growth allowed is 8 MiB.
func TestRepeatedRunsRetainBoundedMemory(t *testing.T) {
	run := func() {
		_, err := Run(context.Background(), Options{
			Machine:      config.Figure2(1),
			Sources:      workload.MixSources(1, workload.MixOpts{Seed: 0x7e7a1}),
			Mode:         ModeSampled,
			Sampling:     Sampling{PeriodInsts: 200_000, UnitInsts: 1_000, WarmupInsts: 2_000},
			MeasureInsts: 2_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	run()
	run()
	if grown := liveHeap() - before; grown >= 8<<20 {
		t.Fatalf("live heap grew by %d bytes over two runs of one seed", grown)
	}
}
