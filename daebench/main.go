// Command daebench is the repository's benchmark: four workloads that
// exercise the simulator the ways its users do, end-to-end metrics that a
// change may not regress past the bounds in BENCHMARK.json, and a traced
// run that says which layer the time went to.
//
// # Running it
//
// From the repository root (daebench/run.sh builds the binary into
// .bench_build and runs it with the same arguments):
//
//	bash daebench/run.sh                          # all four workloads, table on stdout
//	bash daebench/run.sh -runs 10 -out runs.json  # ten seeds each, samples kept
//	bash daebench/run.sh -workload single-cold -seed 3 -seconds 25
//	bash daebench/run.sh -workload serve-mixed -trace 1   # per-layer metrics
//	bash daebench/run.sh -compare old.json,new.json
//
// With -workload the run's last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
// Every workload runs in fresh child processes of the benchmark, so
// peak_rss_mib is the child's own and nothing is warm from an earlier
// workload. The inputs come from -seed alone: the same seed generates
// the same requests, and no two inputs of a run share a workload seed.
// Any failed operation or output check makes the run exit nonzero.
//
// # Workloads
//
//   - sweep-fig4: one pass of experiments.Fig4 at DefaultBudget (48
//     points: 1–4 contexts × decoupled/non-decoupled × L2 latency 1…256)
//     on a fresh runner with 2 workers, in a fresh process per pass,
//     passes repeated for the run's duration. Chosen because it is the
//     paper's own traffic: pipeline-bound low-latency points,
//     calendar-bound L2=128/256 points, streams shared across points
//     through the trace interner, and a flat L2, so finite memory levels
//     and the serving stack do almost nothing. One operation is one
//     pass.
//   - single-cold: a closed loop of Engine.Run calls at the default
//     Request budget, each on a never-seen seed, rotating over 4T flat
//     L2=16, 1T flat L2=256, 4T over a 256 KiB shared L2 with DRAM, and a
//     4-core CMP over a 256 KiB shared L2. Chosen because every stream is
//     read once, so live workload generation has its largest share, and
//     the finite L2, DRAM bus and CMP interconnect do real work. One
//     operation is one call.
//   - sampled-5m: the same loop with sampled-mode 5M-instruction budgets
//     over 1T/4T × L2 16/256. Chosen because ~97% of instructions go
//     through functional warp and ~3% through the detailed pipeline: a
//     pipeline gain that costs warp or generation shows here. One
//     operation is one call.
//   - serve-mixed: open loop at 50 requests/s against an in-process
//     fabric router with 2 dae-serve replicas (1 worker each) over a
//     per-run store, on loopback HTTP, at most nproc client connections.
//     Exactly 70% cached runs, 10% sweeps of 4 (2 cached, 2 fresh) and
//     20% fresh runs, 10k+40k-instruction budgets. Chosen because router
//     admission, the store fast path, HTTP/JSON and the caches carry the
//     cost; simulation is a minority. One operation is one request,
//     timed from when it was due, so a stall also delays the requests
//     behind it.
//
// # End-to-end metrics
//
//   - setup_s (s): median time to set the workload's system up — a
//     pass's process start and runner (sweep-fig4); a fresh Engine and
//     one small run (single-cold, sampled-5m); booting the router and
//     replicas and POSTing a 16-request warm pool (serve-mixed). Set up
//     several times per run.
//   - op_ms_p50 (ms): median operation latency.
//   - sim_minsts_per_s (Minst/s): instructions covered by the budgets of
//     the successful operations (warm-up plus measurement; warped
//     instructions count in sampled mode; on serve-mixed cached replies
//     count too) per second of the timed phase.
//   - peak_rss_mib (MiB): the largest child's maximum resident set.
//
// The table also prints each run's mean latency and latency tail — the
// highest percentile with at least ten operations beyond it (p99 at
// 1,000 samples), or the slowest operation below 20 samples — without a
// bound. On a 2-CPU VM shared with other tenants, which slowed the
// simulator by up to 2.2× for minutes at a time, the tail's quartile
// spread across ten runs reached 0.24 of its median on single-cold and
// the mean's 0.20 on serve-mixed, where the median's stayed within 0.07.
// The bounds in BENCHMARK.json are 0.25 for the same reason.
//
// # Traced run
//
// -trace 1 measures the workload untraced and then traced (sweep-fig4:
// one pass of each, in separate processes; the others: half the run
// each). Spans are recorded by this program only, around calls into each
// layer's public functions: Request.Validate/Hash, workload.MixSources
// and sim.Run (the split the runner makes), with sources wrapped in a
// timing reader that keeps the interned Peeker fast path, timing
// middleware around the router and replica handlers, and a span per
// generated request from its due time to its reply. Spans of one
// operation share an op ID; they stay in memory and are written to
// <outdir>/spans-<workload>.json at the end.
// runtime/pprof runs over the traced part. The traced part also re-runs
// a small request on every machine of the workload three ways (Engine,
// sim.Run, sim.Run stepped cycle by cycle) and requires identical
// reports. Per-layer metrics (a layer a workload never calls reports 0):
//
//   - workload.ns_per_inst (ns/inst): time in source reads per
//     instruction read; workload.interned_frac (ratio): sources on the
//     interned Peeker path.
//   - sim.ns_per_inst (ns/inst) and sim.ns_per_sim_cycle (ns/cycle):
//     time in sim.Run per budget instruction and per simulated cycle;
//     sim.warmup_frac (ratio): its share before the warm-up/measure
//     boundary (from sim.Options.OnProgress).
//   - daesim.validate_hash_us (us): Request.Validate plus Hash.
//   - runner.worker_busy_frac (ratio): simulation time over 2 slots ×
//     wall time; runner.cache_hit_frac (ratio): from Engine/runner Stats.
//   - fabric.self_us_per_req (us): router time not covered by replica
//     time, per request; fabric.forwarded_per_req (count/req): replica
//     calls per request; serveapi.busy_ms_per_req (ms): replica time per
//     request.
//   - loadgen.lag_ms_tail (ms): how late the generator sent (closed
//     loops: the gap between calls); loadgen.conn_wait_ms_tail (ms): how
//     long a sent request waited for one of the nproc connections.
//   - mem.level_accesses_per_kinst and mem.l1_misses_per_kinst
//     (count/kinst): shared-level accesses and L1 misses per thousand
//     measured instructions, from the reports.
//   - trace.overhead_frac (ratio): traced over untraced latency, minus 1.
//   - cpu.<layer>_frac (ratio) and cpu.<layer>_ns_per_inst (ns/inst):
//     profile samples attributed to each layer — core.fetch,
//     core.dispatch, core.issue, core.graduate (the (*Core).Tick child a
//     sample runs under), core.calendar, core.warp, core.cmp, core.other,
//     mem, workload, sim, runner, serveapi, fabric, net, json, gc, other —
//     to the innermost frame that belongs to one; cpu.attributed_ns_per_inst
//     is their sum, host.cpu_ns_per_inst the process CPU time per
//     instruction, cpu.profile_coverage their ratio and cpu.samples the
//     sample count.
//
// # Output checks
//
// Every report is checked for its invariants; with -seed 1 the first
// reports must match testdata/golden.json (regenerate an entry with
// -update-golden); single-cold and sampled-5m re-run their first call
// through sim.Run; sweep-fig4 passes of one run must produce identical
// report sets across processes; serve-mixed requires every cached reply
// to carry its warm-pool original's report, every never-seen request to
// be simulated (cached: false), and its first fresh replies to match
// sim.Run in-process.
//
// # Comparing
//
// -compare old.json,new.json reads two -out files and prints, per
// (workload, metric), both medians and quartiles and a verdict under the
// metric's direction and bound from BENCHMARK.json: regression,
// improvement, within bound, or unresolved when the old runs' own
// quartile spread exceeds the bound. Snapshots of the earlier dae-bench
// format (BENCH_<n>.json) are reported as not comparable.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runLimit caps one benchmark invocation, which must end within 180 s
// even on a slow host; childLimit caps one child.
const (
	runLimit   = 170 * time.Second
	childLimit = 160 * time.Second
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "daebench:", err)
		os.Exit(1)
	}
}

// runRecord is one run of one workload, as kept in -out files.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]sampled `json:"metrics"`
	// golden are the report hashes the golden check compares (kept for
	// -update-golden).
	golden []string
}

// snapshot is the -out file: the host fingerprint plus every run.
type snapshot struct {
	GoVersion string      `json:"go_version"`
	GOARCH    string      `json:"goarch"`
	NumCPU    int         `json:"num_cpu"`
	Timestamp string      `json:"timestamp"`
	Runs      []runRecord `json:"runs"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("daebench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload and print its result line (default: all four, as a table)")
		seed    = fs.Uint64("seed", 1, "input seed; the same seed generates the same inputs")
		seconds = fs.Float64("seconds", 25, "how long each run measures")
		traced  = fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		runs    = fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		out     = fs.String("out", "", "also write every run, with its samples and the host fingerprint, to this file")
		compare = fs.String("compare", "", "old.json,new.json: compare two -out files and exit")
		outdir  = fs.String("outdir", ".bench_build", "directory for span files and temporary stores")
		tiny    = fs.Bool("tiny", false, "test-sized budgets")
		update  = fs.String("update-golden", "", "write this run's default-seed report hashes into this golden file")
		child   = fs.Bool("child", false, "internal: measure one workload in this process")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *compare != "" {
		return compareFiles(stdout, *compare, "BENCHMARK.json")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 || *runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1, tiny: *tiny, outdir: *outdir}
	if *child {
		return runChild(cfg, stdout)
	}
	names := []string{*name}
	if *name == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := workloadByName(*name); err != nil {
		return err
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}

	snap := snapshot{
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	allOK := true
	for _, w := range names {
		for r := 0; r < *runs; r++ {
			c := cfg
			c.workload, c.seed = w, cfg.seed+uint64(r)
			rec, err := runWorkload(c)
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", w, c.seed, err)
			}
			if *update != "" {
				if err := updateGolden(*update, c, rec); err != nil {
					return err
				}
			}
			snap.Runs = append(snap.Runs, rec)
			allOK = allOK && rec.Correct && rec.Failed == 0
			if *name == "" {
				printTable(stdout, rec)
			} else {
				printTable(os.Stderr, rec)
				if err := printResultLine(stdout, rec); err != nil {
					return err
				}
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allOK {
		return errors.New("failed operations or output checks (see above)")
	}
	return nil
}

// printResultLine writes the machine-readable line: the metrics of the
// run's kind with their values and units.
func printResultLine(w io.Writer, rec runRecord) error {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]metricValue{}}
	for name, m := range rec.Metrics {
		line.Metrics[name] = m.metricValue
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func printTable(w io.Writer, rec runRecord) {
	kind := "end-to-end"
	if rec.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s seed=%d (%s): correct=%v attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, kind, rec.Correct, rec.Attempted, rec.Failed)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintln(w, describe(n, rec.Metrics[n]))
	}
	if ops := rec.Metrics["op_ms_p50"].Samples; len(ops) > 0 {
		v, p := tail(ops)
		fmt.Fprintf(w, "  %-30s %14.4f %-9s (no bound)\n", "op latency mean", sum(ops)/float64(len(ops)), "ms")
		fmt.Fprintf(w, "  %-30s %14.4f %-9s p%.1f of %d (no bound)\n", "op latency tail", v, "ms", p, len(ops))
	}
}

// ----------------------------------------------------------------------------
// Parent side: spawn children and turn their measurements into metrics.

// childRun is one finished child.
type childRun struct {
	res     childResult
	spawned time.Time
	rssMiB  float64
}

// spawn runs the benchmark binary as a child measuring cfg.
func spawn(ctx context.Context, cfg config) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{"-child", "-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-outdir", cfg.outdir}
	if cfg.traced {
		args = append(args, "-trace", "1")
	}
	if cfg.tiny {
		args = append(args, "-tiny")
	}
	ctx, cancel := context.WithTimeout(ctx, childLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	tmp, err := filepath.Abs(filepath.Join(cfg.outdir, "tmp"))
	if err != nil {
		return childRun{}, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return childRun{}, err
	}
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.WaitDelay = 5 * time.Second
	cr := childRun{spawned: time.Now()}
	if err := cmd.Run(); err != nil {
		return cr, fmt.Errorf("child: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr.res); err != nil {
		return cr, fmt.Errorf("child result: %w", err)
	}
	return cr, nil
}

// runWorkload runs one workload once and computes its metrics.
func runWorkload(cfg config) (runRecord, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	rec := runRecord{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced, Metrics: map[string]sampled{}}
	var children []childRun
	if cfg.workload == "sweep-fig4" {
		var err error
		if children, err = sweepChildren(ctx, cfg); err != nil {
			return rec, err
		}
	} else {
		c, err := spawn(ctx, cfg)
		if err != nil {
			return rec, err
		}
		children = []childRun{c}
	}

	var setups, ops []float64
	var insts int64
	var wall, rss float64
	for _, c := range children {
		r := c.res
		rec.Attempted += r.Attempted
		rec.Failed += r.Failed
		rec.Problems = append(rec.Problems, r.Problems...)
		ops = append(ops, r.Ops...)
		insts += r.Insts
		wall += r.WallS
		rss = max(rss, c.rssMiB)
		if cfg.workload == "sweep-fig4" {
			setups = append(setups, float64(r.ReadyUnixNano-c.spawned.UnixNano())/1e9)
		} else {
			setups = append(setups, r.Setups...)
		}
	}
	// A sweep's passes all run the same inputs in separate processes: they
	// must agree.
	for _, c := range children[1:] {
		if c.res.Digest != children[0].res.Digest {
			rec.Failed++
			rec.Problems = append(rec.Problems, "sweep passes in separate processes produced different reports")
		}
	}
	rec.Correct = rec.Failed == 0 && len(ops) > 0
	rec.golden = children[0].res.Golden

	if cfg.traced {
		layers := children[len(children)-1].res.Layers
		if cfg.workload == "sweep-fig4" {
			// The untraced pass supplies the runner's occupancy and the
			// baseline for the tracing overhead.
			base := children[0].res
			for k, v := range base.Layers {
				layers[k] = v
			}
			layers["trace.overhead_frac"] = ratio(children[1].res.WallS, base.WallS) - 1
		}
		for _, d := range perLayer {
			v, ok := layers[d.name]
			if !ok {
				return rec, fmt.Errorf("traced run did not produce %s", d.name)
			}
			rec.Metrics[d.name] = sampled{metricValue: metricValue{Value: v, Unit: d.unit}}
		}
		return rec, nil
	}
	values := map[string]sampled{
		"setup_s":          {metricValue{median(setups), "s"}, setups},
		"op_ms_p50":        {metricValue{median(ops), "ms"}, ops},
		"sim_minsts_per_s": {metricValue{ratio(float64(insts)/1e6, wall), "Minst/s"}, nil},
		"peak_rss_mib":     {metricValue{rss, "MiB"}, nil},
	}
	for _, d := range endToEnd {
		rec.Metrics[d.name] = values[d.name]
	}
	return rec, nil
}

// sweepChildren runs sweep-fig4's passes, one process each: untraced
// passes while the next one still fits the run's duration, or for a
// traced run one untraced and one traced pass.
func sweepChildren(ctx context.Context, cfg config) ([]childRun, error) {
	if cfg.traced {
		var out []childRun
		for _, traced := range []bool{false, true} {
			c := cfg
			c.traced = traced
			r, err := spawn(ctx, c)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	var out []childRun
	start := time.Now()
	for {
		r, err := spawn(ctx, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		last := time.Since(r.spawned).Seconds()
		if time.Since(start).Seconds()+last > cfg.seconds {
			return out, nil
		}
	}
}

// ----------------------------------------------------------------------------
// Child side.

func runChild(cfg config, stdout io.Writer) error {
	if _, err := workloadByName(cfg.workload); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childLimit)
	defer cancel()
	var (
		res childResult
		err error
	)
	switch cfg.workload {
	case "sweep-fig4":
		if cfg.traced {
			res, err = runTracedSweepPass(ctx, cfg)
		} else {
			res, err = runSweepPass(ctx, cfg)
		}
	case "single-cold":
		res, err = runSimLoop(ctx, cfg, singleCold(cfg.tiny))
	case "sampled-5m":
		res, err = runSimLoop(ctx, cfg, sampled5M(cfg.tiny))
	case "serve-mixed":
		res, err = runServe(ctx, cfg)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func spansPath(cfg config) string {
	return filepath.Join(cfg.outdir, "spans-"+cfg.workload+".json")
}

// updateGolden records a default-seed run's report hashes in a golden
// file, replacing the workload's entry.
func updateGolden(path string, cfg config, rec runRecord) error {
	if cfg.seed != 1 || cfg.traced {
		return fmt.Errorf("-update-golden needs -seed 1 and -trace 0")
	}
	g := map[string][]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	g[goldenKey(cfg)] = rec.golden
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
