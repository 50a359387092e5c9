// Command dae-sim runs one simulator configuration and prints the full
// statistics report.
//
// Examples:
//
//	dae-sim -threads 3                     # Figure-2 machine, mixed workload
//	dae-sim -threads 1 -bench swim -l2 64  # single benchmark, L2 latency 64
//	dae-sim -threads 4 -nondecoupled       # decoupling disabled
//	dae-sim -section2 -bench fpppp -l2 256 # the paper's Section-2 machine
//	dae-sim -threads 4 -l2size 262144      # finite 256KB shared L2 + DRAM
//	                                       # instead of the flat infinite L2
//	dae-sim -cores 2 -threads 2 -l2size 262144   # 2-core CMP sharing the L2
//	dae-sim -cores 4 -threads 1 -l2size 65536 -privatel2  # per-core L2s
//	dae-sim -threads 4 -trace swim.dct           # replay a dae-trace container
//	dae-sim -threads 2 -spec-frac 0.3 -spec-misspec 0.05  # speculative-DAE
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"

	daesim "repro"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		threads      = flag.Int("threads", 1, "hardware contexts (per core with -cores)")
		cores        = flag.Int("cores", 1, "CMP cores, each with its own contexts and private L1, composed over the finite shared hierarchy (-l2size) or the flat L2")
		privateL2    = flag.Bool("privatel2", false, "replicate the finite L2 per core instead of sharing it (with -cores and -l2size)")
		bench        = flag.String("bench", "", "single benchmark to run (default: the all-benchmark mix); one of "+strings.Join(daesim.Benchmarks(), ","))
		l2           = flag.Int64("l2", 16, "flat L2 latency in cycles (ignored with -l2size)")
		l2Size       = flag.Int("l2size", 0, "finite shared L2 capacity in bytes; 0 keeps the paper's infinite flat L2")
		l2Assoc      = flag.Int("l2assoc", 8, "finite L2 associativity (with -l2size)")
		l2MSHRs      = flag.Int("l2mshrs", 16, "finite L2 MSHR count (with -l2size)")
		l2HitLat     = flag.Int64("l2hitlat", 16, "finite L2 array access latency in cycles (with -l2size)")
		memBus       = flag.Int("membus", 16, "L2↔memory bus width in bytes/cycle (with -l2size)")
		dram         = flag.Int64("dram", 64, "DRAM access latency in cycles behind the finite L2 (with -l2size)")
		nondecoupled = flag.Bool("nondecoupled", false, "disable access/execute decoupling (no AP/EP slippage)")
		section2     = flag.Bool("section2", false, "use the paper's Section-2 machine (4-way, shared FUs, scaled queues)")
		warmup       = flag.Int64("warmup", daesim.DefaultWarmup, "warm-up instructions (excluded from stats)")
		measure      = flag.Int64("measure", daesim.DefaultMeasure, "measured instructions")
		mode         = flag.String("mode", "exact", "execution mode: exact (detailed, bit-exact) or sampled (SMARTS-style estimate with confidence interval); adaptive is an alias of exact with its own request hash")
		samplePeriod = flag.Int64("sample-period", 0, "sampled mode: sampling period in instructions (0 = default "+fmt.Sprint(sim.DefaultSamplingPeriod)+")")
		sampleUnit   = flag.Int64("sample-unit", 0, "sampled mode: measured unit length in instructions (0 = default "+fmt.Sprint(sim.DefaultSamplingUnit)+")")
		sampleWarmup = flag.Int64("sample-warmup", 0, "sampled mode: detailed warm-up before each unit (0 = default "+fmt.Sprint(sim.DefaultSamplingWarmup)+")")
		seed         = flag.Uint64("seed", 0, "workload seed")
		forwarding   = flag.Bool("forwarding", false, "enable store-to-load forwarding in the SAQ")
		fetchRR      = flag.Bool("fetch-rr", false, "use round-robin fetch instead of ICOUNT")
		mix          = flag.Bool("mixdetail", false, "also print the graduated instruction mix")
		traceFiles   = flag.String("trace", "", "trace file to replay (overrides -bench/mix); a single path runs as a content-addressed trace Request in any dae-trace format, a comma-separated list replays one legacy file per thread")
		traceFormat  = flag.String("trace-format", "", "single -trace file format (auto, container, legacy, bin, text; default sniffs)")
		specFrac     = flag.Float64("spec-frac", 0, "speculative-DAE: fraction of access-slice loads hoisted speculatively [0,1]")
		specMisspec  = flag.Float64("spec-misspec", 0, "speculative-DAE: misspeculation probability per speculative load [0,1]")
		specSquash   = flag.Int64("spec-squash", 0, "speculative-DAE: squash refetch penalty in cycles (0 = default "+fmt.Sprint(daesim.DefaultSquashCycles)+" when loads speculate)")
		specLoD      = flag.Int64("spec-lod", 0, "speculative-DAE: force a loss-of-decoupling event every N fetched instructions per context (0 = never)")
		jsonOut      = flag.Bool("json", false, "emit the report as JSON (for scripting)")
		cacheDir     = flag.String("cache", "", "on-disk result cache directory shared with dae-sweep and dae-serve (bench/mix runs only)")
		hashOnly     = flag.Bool("hash", false, "print the run's Request content hash and exit without simulating")
		requestOut   = flag.Bool("request", false, "print the run's Request JSON (the dae-serve POST /v1/runs body) and exit without simulating")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file (inspect with go tool pprof)")
	)
	flag.Parse()

	// fail stops an active CPU profile (a no-op otherwise, keeping the
	// output file valid) before exiting on an error.
	fail := func(err error) {
		pprof.StopCPUProfile()
		fmt.Fprintln(os.Stderr, "dae-sim:", err)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	var m daesim.Machine
	if *section2 {
		m = daesim.Section2()
	} else {
		m = daesim.Figure2(*threads)
	}
	m = m.WithThreads(*threads).WithL2Latency(*l2).WithCores(*cores)
	if *l2Size > 0 {
		spec := daesim.SharedL2(*l2Size, *l2Assoc)
		spec.MSHRs = *l2MSHRs
		spec.HitLatency = *l2HitLat
		spec.BusBytesPerCycle = *memBus
		m = m.WithHierarchy(*dram, spec)
	}
	if *privateL2 {
		m = m.WithPrivateHierarchy()
	}
	if *nondecoupled {
		m = m.NonDecoupled()
	}
	m.StoreForwarding = *forwarding
	if *fetchRR {
		m.FetchPolicy = daesim.FetchRoundRobin
	}
	if *specFrac != 0 || *specMisspec != 0 || *specSquash != 0 || *specLoD != 0 {
		m = m.WithSpeculation(daesim.Speculation{
			SpecLoadFrac: *specFrac,
			MisspecProb:  *specMisspec,
			SquashCycles: *specSquash,
			LoDEvery:     *specLoD,
		})
	}

	// Ctrl-C cancels the simulation through the Engine's context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := daesim.RunOpts{WarmupInsts: *warmup, MeasureInsts: *measure, Seed: *seed}
	var sampling *daesim.Sampling
	if *mode == daesim.ModeSampled {
		sampling = &daesim.Sampling{
			PeriodInsts: *samplePeriod,
			UnitInsts:   *sampleUnit,
			WarmupInsts: *sampleWarmup,
		}
	} else if *samplePeriod != 0 || *sampleUnit != 0 || *sampleWarmup != 0 {
		fail(fmt.Errorf("-sample-* flags require -mode sampled"))
	}
	var (
		rep daesim.Report
		err error
	)
	if strings.Contains(*traceFiles, ",") {
		// Legacy multi-file replay: one single-stream file per thread,
		// outside the Request/cache surface.
		if *hashOnly || *requestOut {
			fail(fmt.Errorf("-hash/-request require a single -trace file or a synthetic workload"))
		}
		rep, err = runFromFiles(ctx, m, strings.Split(*traceFiles, ","), opts, *mode, sampling)
	} else {
		req := daesim.MixRequest(m, opts)
		what := "mix"
		switch {
		case *traceFiles != "":
			// A single trace file is a first-class content-addressed
			// Request: hashable, cacheable and servable like any other.
			if *seed != 0 {
				fail(fmt.Errorf("-seed applies to generator workloads, not trace replay"))
			}
			req = daesim.TraceRequest(*traceFiles, *traceFormat, m, opts)
			what = "trace"
		case *bench != "":
			req = daesim.BenchmarkRequest(*bench, m, opts)
			what = *bench
		}
		req.Budget.Mode = *mode
		req.Budget.Sampling = sampling
		req = req.Normalized()
		if err := req.Validate(); err != nil {
			fail(err)
		}
		memDesc := fmt.Sprintf("L2=%d", m.Mem.L2Latency)
		if *l2Size > 0 {
			memDesc = fmt.Sprintf("l2size=%d", *l2Size)
		}
		coresDesc := ""
		if m.CoreCount() > 1 {
			coresDesc = fmt.Sprintf("cores=%d ", m.CoreCount())
		}
		req.Label = fmt.Sprintf("dae-sim %s %sthreads=%d %s", what, coresDesc, m.Threads, memDesc)
		if *hashOnly {
			fmt.Println(req.Hash())
			return
		}
		if *requestOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(req); err != nil {
				fail(err)
			}
			return
		}
		rep, err = runRequest(ctx, req, *cacheDir)
	}
	if err != nil {
		fail(err)
	}
	if *traceFiles != "" && rep.Graduated == 0 {
		// Finite traces run to exhaustion; a warm-up budget at least as
		// long as the trace leaves nothing to measure.
		fmt.Fprintf(os.Stderr, "dae-sim: warning: measurement window is empty — the trace ran dry during warm-up (lower -warmup below the trace's per-stream length)\n")
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
		return
	}
	fmt.Print(rep.String())
	if *mix {
		mixes := rep.InstMix()
		fmt.Printf("inst mix: int=%.1f%% fp=%.1f%% load=%.1f%% store=%.1f%% branch=%.1f%%\n",
			100*mixes[0], 100*mixes[1], 100*mixes[2], 100*mixes[3], 100*mixes[4])
	}
}

// runRequest executes a synthetic-workload run through the public
// Engine, so a single point computed here lands in (and is served from)
// the same content-addressed result cache dae-sweep and dae-serve use.
func runRequest(ctx context.Context, req daesim.Request, cacheDir string) (daesim.Report, error) {
	eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: 1, CacheDir: cacheDir})
	if err != nil {
		return daesim.Report{}, err
	}
	return eng.Run(ctx, req)
}

// runFromFiles drives the machine with pre-recorded trace files (one per
// thread), as produced by `dae-trace gen`. Finite traces run to
// completion; the measurement window still applies if smaller.
func runFromFiles(ctx context.Context, m daesim.Machine, paths []string, opts daesim.RunOpts, mode string, sampling *daesim.Sampling) (daesim.Report, error) {
	if len(paths) != m.TotalContexts() {
		return daesim.Report{}, fmt.Errorf("%d trace files for %d contexts", len(paths), m.TotalContexts())
	}
	sources := make([]trace.Reader, len(paths))
	closers := make([]*os.File, len(paths))
	defer func() {
		for _, f := range closers {
			if f != nil {
				f.Close()
			}
		}
	}()
	for i, p := range paths {
		f, err := os.Open(strings.TrimSpace(p))
		if err != nil {
			return daesim.Report{}, err
		}
		closers[i] = f
		fr, err := trace.NewFileReader(f)
		if err != nil {
			return daesim.Report{}, fmt.Errorf("%s: %w", p, err)
		}
		sources[i] = fr
	}
	res, err := sim.Run(ctx, sim.Options{
		Machine:      m,
		Sources:      sources,
		WarmupInsts:  opts.WarmupInsts,
		MeasureInsts: opts.MeasureInsts,
		MaxCycles:    opts.MaxCycles,
		Mode:         simMode(mode),
		Sampling:     simSampling(sampling),
	})
	if err != nil {
		return daesim.Report{}, err
	}
	return res.Report, nil
}

func simMode(mode string) sim.Mode {
	if mode == daesim.ModeExact {
		return sim.ModeExact
	}
	return sim.Mode(mode)
}

func simSampling(s *daesim.Sampling) sim.Sampling {
	if s == nil {
		return sim.Sampling{}
	}
	return sim.Sampling{
		PeriodInsts: s.PeriodInsts,
		UnitInsts:   s.UnitInsts,
		WarmupInsts: s.WarmupInsts,
	}
}
