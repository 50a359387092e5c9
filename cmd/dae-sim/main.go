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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"

	daesim "repro"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dae-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threads      = fs.Int("threads", 1, "hardware contexts (per core with -cores)")
		cores        = fs.Int("cores", 1, "CMP cores, each with its own contexts and private L1, composed over the finite shared hierarchy (-l2size) or the flat L2")
		privateL2    = fs.Bool("privatel2", false, "replicate the finite L2 per core instead of sharing it (with -cores and -l2size)")
		bench        = fs.String("bench", "", "single benchmark to run (default: the all-benchmark mix); one of "+strings.Join(daesim.Benchmarks(), ","))
		l2           = fs.Int64("l2", 16, "flat L2 latency in cycles (ignored with -l2size)")
		l2Size       = fs.Int("l2size", 0, "finite shared L2 capacity in bytes; 0 keeps the paper's infinite flat L2")
		l2Assoc      = fs.Int("l2assoc", 8, "finite L2 associativity (with -l2size)")
		l2MSHRs      = fs.Int("l2mshrs", 16, "finite L2 MSHR count (with -l2size)")
		l2HitLat     = fs.Int64("l2hitlat", 16, "finite L2 array access latency in cycles (with -l2size)")
		memBus       = fs.Int("membus", 16, "L2↔memory bus width in bytes/cycle (with -l2size)")
		dram         = fs.Int64("dram", 64, "DRAM access latency in cycles behind the finite L2 (with -l2size)")
		nondecoupled = fs.Bool("nondecoupled", false, "disable access/execute decoupling (no AP/EP slippage)")
		section2     = fs.Bool("section2", false, "use the paper's Section-2 machine (4-way, shared FUs, scaled queues)")
		warmup       = fs.Int64("warmup", daesim.DefaultWarmup, "warm-up instructions (excluded from stats)")
		measure      = fs.Int64("measure", daesim.DefaultMeasure, "measured instructions")
		mode         = fs.String("mode", "exact", "execution mode: exact (detailed, bit-exact) or sampled (SMARTS-style estimate with confidence interval)")
		samplePeriod = fs.Int64("sample-period", 0, "sampled mode: sampling period in instructions (0 = default "+fmt.Sprint(sim.DefaultSamplingPeriod)+")")
		sampleUnit   = fs.Int64("sample-unit", 0, "sampled mode: measured unit length in instructions (0 = default "+fmt.Sprint(sim.DefaultSamplingUnit)+")")
		sampleWarmup = fs.Int64("sample-warmup", 0, "sampled mode: detailed warm-up before each unit (0 = default "+fmt.Sprint(sim.DefaultSamplingWarmup)+")")
		seed         = fs.Uint64("seed", 0, "workload seed")
		forwarding   = fs.Bool("forwarding", false, "enable store-to-load forwarding in the SAQ")
		fetchRR      = fs.Bool("fetch-rr", false, "use round-robin fetch instead of ICOUNT")
		mix          = fs.Bool("mixdetail", false, "also print the graduated instruction mix")
		traceFile    = fs.String("trace", "", "trace container to replay as a content-addressed trace Request (overrides -bench/mix); convert other formats with dae-trace import")
		specFrac     = fs.Float64("spec-frac", 0, "speculative-DAE: fraction of access-slice loads hoisted speculatively [0,1]")
		specMisspec  = fs.Float64("spec-misspec", 0, "speculative-DAE: misspeculation probability per speculative load [0,1]")
		specSquash   = fs.Int64("spec-squash", 0, "speculative-DAE: squash refetch penalty in cycles (0 = default "+fmt.Sprint(daesim.DefaultSquashCycles)+" when loads speculate)")
		specLoD      = fs.Int64("spec-lod", 0, "speculative-DAE: force a loss-of-decoupling event every N fetched instructions per context (0 = never)")
		jsonOut      = fs.Bool("json", false, "emit the report as JSON (for scripting)")
		cacheDir     = fs.String("cache", "", "on-disk result cache directory shared with dae-sweep and dae-serve")
		hashOnly     = fs.Bool("hash", false, "print the run's Request content hash and exit without simulating")
		requestOut   = fs.Bool("request", false, "print the run's Request JSON (the dae-serve POST /v1/runs body) and exit without simulating")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the simulation to this file (inspect with go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	m := daesim.Figure2(*threads)
	if *section2 {
		m = daesim.Section2()
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
	// Normalized folds an all-zero speculation block to "off".
	m = m.WithSpeculation(daesim.Speculation{
		SpecLoadFrac: *specFrac,
		MisspecProb:  *specMisspec,
		SquashCycles: *specSquash,
		LoDEvery:     *specLoD,
	})

	// Ctrl-C cancels the simulation through the Engine's context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := daesim.RunOpts{WarmupInsts: *warmup, MeasureInsts: *measure, Seed: *seed}
	req := daesim.MixRequest(m, opts)
	switch {
	case *traceFile != "":
		// A trace container is a first-class content-addressed Request,
		// hashable and servable like any other; Validate rejects -seed.
		req = daesim.TraceRequest(*traceFile, "", m, opts)
		req.Workload.Seed = *seed
	case *bench != "":
		req = daesim.BenchmarkRequest(*bench, m, opts)
	}
	req.Budget.Mode = *mode
	// Validate rejects -sample-* flags outside -mode sampled.
	if *mode == daesim.ModeSampled || *samplePeriod != 0 || *sampleUnit != 0 || *sampleWarmup != 0 {
		req.Budget.Sampling = &daesim.Sampling{PeriodInsts: *samplePeriod, UnitInsts: *sampleUnit, WarmupInsts: *sampleWarmup}
	}
	req = req.Normalized()
	if err := req.Validate(); err != nil {
		fmt.Fprintln(stderr, "dae-sim:", err)
		return 1
	}
	if *hashOnly {
		fmt.Fprintln(stdout, req.Hash())
		return 0
	}
	if *requestOut {
		return writeJSON(stdout, stderr, req)
	}
	rep, err := runRequest(ctx, req, *cacheDir, *cpuProfile)
	if err != nil {
		fmt.Fprintln(stderr, "dae-sim:", err)
		return 1
	}
	if *traceFile != "" && rep.Graduated == 0 {
		// Finite traces run to exhaustion; a warm-up budget at least as
		// long as the trace leaves nothing to measure.
		fmt.Fprintf(stderr, "dae-sim: warning: measurement window is empty — the trace ran dry during warm-up (lower -warmup below the trace's per-stream length)\n")
	}
	if *jsonOut {
		return writeJSON(stdout, stderr, rep)
	}
	fmt.Fprint(stdout, rep.String())
	if *mix {
		mixes := rep.InstMix()
		fmt.Fprintf(stdout, "inst mix: int=%.1f%% fp=%.1f%% load=%.1f%% store=%.1f%% branch=%.1f%%\n",
			100*mixes[0], 100*mixes[1], 100*mixes[2], 100*mixes[3], 100*mixes[4])
	}
	return 0
}

// writeJSON prints v as indented JSON and returns the exit code.
func writeJSON(stdout, stderr io.Writer, v any) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(stderr, "dae-sim:", err)
		return 1
	}
	return 0
}

// runRequest executes the run through the public Engine, so a single
// point computed here lands in (and is served from) the same
// content-addressed result cache dae-sweep and dae-serve use. A
// non-empty cpuProfile names the file that gets the run's CPU profile.
func runRequest(ctx context.Context, req daesim.Request, cacheDir, cpuProfile string) (daesim.Report, error) {
	eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: 1, CacheDir: cacheDir})
	if err != nil {
		return daesim.Report{}, err
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return daesim.Report{}, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return daesim.Report{}, err
		}
		defer pprof.StopCPUProfile()
	}
	return eng.Run(ctx, req)
}
