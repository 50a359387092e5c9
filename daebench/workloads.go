package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	daesim "repro"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload. why is the one-line reason it is
// in the benchmark, repeated in BENCHMARK.json.
type workloadDef struct {
	name string
	why  string
}

var workloads = []workloadDef{
	{"sweep-fig4", "The paper's own figure traffic: one Figure-4 pass on a fresh 2-worker runner in a fresh process, with streams shared across points"},
	{"single-cold", "One-off runs with never-seen seeds over flat, finite-L2 and CMP machines: live workload generation and the memory levels do real work"},
	{"sampled-5m", "Sampled 5M-instruction runs: ~97% of instructions go through functional warp, so a pipeline gain that costs warp or generation shows here"},
	{"serve-mixed", "Open-loop HTTP traffic through a router and 2 replicas, 70% cached: admission, the store fast path, HTTP/JSON and the cache carry the cost"},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Seed streams: every input a run generates comes from (-seed, stream,
// index), so the same seed always yields the same inputs and no two
// inputs of a run share a workload seed (a repeated seed would let the
// trace interner replay a stream instead of generating it).
const (
	streamOps = iota + 1
	streamTracedOps
	streamSetup
	streamCheck
	streamWarmPool
	streamFresh
	streamTracedFresh
	streamSchedule
)

// seedFor derives an input seed (splitmix64 over the three coordinates).
func seedFor(base uint64, stream, i int) uint64 {
	mix := func(z uint64) uint64 {
		z += 0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	return mix(base ^ mix(uint64(stream)<<32|uint64(i)))
}

// config is what a child process runs.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	tiny     bool // test-sized budgets
	outdir   string
}

// childResult is a child's measurement, sent to the parent as JSON.
type childResult struct {
	// ReadyUnixNano is when the first timed operation started (the parent
	// derives a sweep pass's set-up time from it).
	ReadyUnixNano int64     `json:"ready_unix_ns"`
	Setups        []float64 `json:"setups_s,omitempty"`
	// Ops are the latencies of the successful timed operations, Insts the
	// instructions their budgets covered, WallS the timed phase.
	Ops       []float64 `json:"ops_ms"`
	Insts     int64     `json:"insts"`
	WallS     float64   `json:"wall_s"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Problems describes failed operations and checks (first few).
	Problems []string `json:"problems,omitempty"`
	// Digest fingerprints a sweep pass's reports, for cross-process checks.
	Digest string `json:"digest,omitempty"`
	// Golden are the report hashes checked against testdata/golden.json.
	Golden []string           `json:"golden,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// fail records a failed operation or check.
func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

//go:embed testdata/golden.json
var goldenJSON []byte

// golden holds report hashes of the default seed's first operations per
// workload ("<workload>" at full budgets, "<workload>/tiny" at test
// budgets): a run with -seed 1 must reproduce them.
var golden = func() map[string][]string {
	g := map[string][]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("testdata/golden.json: %v", err))
	}
	return g
}()

func goldenKey(cfg config) string {
	if cfg.tiny {
		return cfg.workload + "/tiny"
	}
	return cfg.workload
}

// goldenLen is how many leading operations' reports golden entries pin.
const goldenLen = 16

// checkGolden compares a default-seed run's leading report hashes with
// the committed ones, position by position.
func checkGolden(cfg config, res *childResult, hashes []string) {
	res.Golden = hashes[:min(len(hashes), goldenLen)]
	if cfg.seed != 1 {
		return
	}
	for i, want := range golden[goldenKey(cfg)] {
		if i < len(hashes) && hashes[i] != want {
			res.fail("golden: operation %d report %.12s, want %.12s", i, hashes[i], want)
		}
	}
}

// checkBudget is the budget of the traced run's per-machine equivalence
// checks: small, because the stepped reference ticks every cycle.
func checkBudget(mode string) daesim.Budget {
	b := daesim.Budget{WarmupInsts: 2_000, MeasureInsts: 8_000}
	if mode == daesim.ModeSampled {
		b.MeasureInsts = 400_000 // two sampling periods: a warp and a re-warm
		b.Mode = daesim.ModeSampled
	}
	return b
}

// budgetInsts is the instruction count a request's budget covers
// (warm-up plus measurement; in sampled mode the measurement budget
// includes the warped instructions).
func budgetInsts(req daesim.Request) int64 {
	n := req.Normalized()
	return n.Budget.WarmupInsts + n.Budget.MeasureInsts
}

// sane checks a report's invariants.
func sane(req daesim.Request, rep daesim.Report) string {
	n := req.Normalized()
	switch {
	case rep.Cycles <= 0:
		return "no cycles simulated"
	case n.Budget.Mode == daesim.ModeSampled:
		if rep.Sampled == nil || rep.Sampled.Units == 0 {
			return "sampled run without measured units"
		}
	case rep.Graduated < n.Budget.MeasureInsts:
		return fmt.Sprintf("graduated %d of a %d-instruction window", rep.Graduated, n.Budget.MeasureInsts)
	}
	return ""
}

// ----------------------------------------------------------------------------
// The traced split path.

// tracer collects one traced phase's spans and counters.
type tracer struct {
	rec *recorder
	mu  sync.Mutex
	// Sums over the phase's simulations.
	readNs, readInsts, srcs, peek int64
	warmNs, simNs, simCycles      int64
	insts                         int64
	levelAccesses, l1Misses       int64
	measured                      int64
}

func newTracer() *tracer { return &tracer{rec: newRecorder()} }

// splitRun executes a request the way the Engine's runner does —
// Request.Validate and Hash, then sim.Run over the request's mix sources —
// with a span around each call when t is non-nil. Only mix workloads are
// supported, which is all the benchmark generates.
func splitRun(ctx context.Context, t *tracer, op int64, req daesim.Request, stepped bool) (daesim.Report, error) {
	mark := func() int64 {
		if t == nil {
			return 0
		}
		return t.rec.now()
	}
	start := mark()
	if err := req.Validate(); err != nil {
		return daesim.Report{}, err
	}
	_ = req.Hash() // the runner hashes every job before looking it up
	hashed := mark()
	n := req.Normalized()
	if n.Workload.Kind != daesim.WorkloadMix {
		return daesim.Report{}, fmt.Errorf("split path: unsupported workload kind %q", n.Workload.Kind)
	}
	srcs := workload.MixSources(n.Machine.TotalContexts(), workload.MixOpts{
		SegmentLen: n.Workload.SegmentLen,
		Seed:       n.Workload.Seed,
	})
	built := mark()
	opts := sim.Options{
		Machine:               n.Machine,
		Sources:               srcs,
		WarmupInsts:           n.Budget.WarmupInsts,
		MeasureInsts:          n.Budget.MeasureInsts,
		MaxCycles:             n.Budget.MaxCycles,
		Mode:                  sim.Mode(n.Budget.Mode),
		DisjointAddressSpaces: true,
		Stepped:               stepped,
	}
	if s := n.Budget.Sampling; s != nil {
		opts.Sampling = sim.Sampling{PeriodInsts: s.PeriodInsts, UnitInsts: s.UnitInsts, WarmupInsts: s.WarmupInsts}
	}
	if t == nil {
		return finishRun(sim.Run(ctx, opts))
	}

	root := t.rec.reserve()
	t.rec.add("daesim.validate_hash", op, root, start, hashed)
	t.rec.add("workload.sources", op, root, hashed, built)
	var rt readTimer
	for i, s := range srcs {
		srcs[i] = rt.wrap(s)
	}
	// The warm-up/measure boundary falls between the last warm-up snapshot
	// and the first measurement one; interpolate by instructions. The
	// cadence is finer than a sampling unit, so sampled runs report inside
	// their first measured unit too.
	simStart := t.rec.now()
	var lastWarm, firstMeas struct {
		t, g int64
		ok   bool
	}
	lastWarm.t = simStart
	opts.ProgressEvery = 1000
	opts.OnProgress = func(s sim.Snapshot) {
		switch {
		case s.Phase == sim.PhaseWarmup && !firstMeas.ok:
			lastWarm.t, lastWarm.g = t.rec.now(), s.Graduated
		case s.Phase == sim.PhaseMeasure && !firstMeas.ok:
			firstMeas.t, firstMeas.g, firstMeas.ok = t.rec.now(), s.Graduated, true
		}
	}
	res, err := sim.Run(ctx, opts)
	end := t.rec.now()
	simID := t.rec.add("sim.run", op, root, simStart, end)
	boundary := end
	if firstMeas.ok {
		left := float64(n.Budget.WarmupInsts - lastWarm.g)
		frac := ratio(left, left+float64(firstMeas.g))
		boundary = lastWarm.t + int64(frac*float64(firstMeas.t-lastWarm.t))
	}
	t.rec.add("sim.warmup", op, simID, simStart, boundary)
	t.rec.add("sim.measure", op, simID, boundary, end)
	t.rec.addWithID(root, "op", op, 0, start, end)

	rep, err := finishRun(res, err)
	if err != nil {
		return rep, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.readNs += rt.ns
	t.readInsts += rt.insts
	t.srcs += rt.srcs
	t.peek += rt.peek
	t.warmNs += boundary - simStart
	t.simNs += end - simStart
	t.simCycles += res.TotalCycles
	t.insts += budgetInsts(req)
	t.addReport(rep)
	return rep, nil
}

func finishRun(res sim.Result, err error) (daesim.Report, error) {
	if err != nil {
		return daesim.Report{}, err
	}
	if !res.Completed {
		return res.Report, fmt.Errorf("hit the cycle cap")
	}
	return res.Report, nil
}

// addReport counts a report's memory-level work. Callers hold t.mu.
func (t *tracer) addReport(rep daesim.Report) {
	for _, l := range rep.MemLevels {
		if !strings.HasSuffix(l.Name, ".L1") { // CMP reports list the private L1s first
			t.levelAccesses += l.Accesses
		}
	}
	t.l1Misses += rep.Mem.LoadMisses + rep.Mem.StoreMisses
	t.measured += rep.Graduated
}

// layerMetrics turns a traced phase's spans, counters and profile into
// per-layer metrics. Metrics of layers the phase never reached stay 0.
func (t *tracer) layerMetrics(prof *profileRun) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out["workload.ns_per_inst"] = ratio(float64(t.readNs), float64(t.readInsts))
	out["workload.interned_frac"] = ratio(float64(t.peek), float64(t.srcs))
	out["sim.ns_per_inst"] = ratio(float64(t.simNs), float64(t.insts))
	out["sim.ns_per_sim_cycle"] = ratio(float64(t.simNs), float64(t.simCycles))
	out["sim.warmup_frac"] = ratio(float64(t.warmNs), float64(t.simNs))
	if vh := t.rec.named("daesim.validate_hash"); len(vh) > 0 {
		out["daesim.validate_hash_us"] = float64(sumDur(vh)) / 1e3 / float64(len(vh))
	}
	out["mem.level_accesses_per_kinst"] = ratio(1e3*float64(t.levelAccesses), float64(t.measured))
	out["mem.l1_misses_per_kinst"] = ratio(1e3*float64(t.l1Misses), float64(t.measured))
	if prof != nil {
		prof.metrics(out, t.insts)
	}
	return out
}

// profileRun is a CPU profile of a traced phase plus the process CPU
// time the phase used, to check how much of it the profile accounts for.
type profileRun struct {
	buf     bytes.Buffer
	cpu0    time.Duration
	byLayer map[string]int64
	samples int
	cpuNs   int64
}

func startProfile() (*profileRun, error) {
	p := &profileRun{cpu0: processCPU()}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

func (p *profileRun) stop() error {
	pprof.StopCPUProfile()
	p.cpuNs = int64(processCPU() - p.cpu0)
	stacks, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	p.samples = len(stacks)
	p.byLayer = attribute(stacks)
	return nil
}

// metrics adds the cpu.* metrics, per instruction of insts.
func (p *profileRun) metrics(out map[string]float64, insts int64) {
	var total int64
	for _, l := range layers {
		total += p.byLayer[l]
	}
	for _, l := range layers {
		out["cpu."+l+"_frac"] = ratio(float64(p.byLayer[l]), float64(total))
		out["cpu."+l+"_ns_per_inst"] = ratio(float64(p.byLayer[l]), float64(insts))
	}
	out["cpu.attributed_ns_per_inst"] = ratio(float64(total), float64(insts))
	out["host.cpu_ns_per_inst"] = ratio(float64(p.cpuNs), float64(insts))
	out["cpu.profile_coverage"] = ratio(float64(total), float64(p.cpuNs))
	out["cpu.samples"] = float64(p.samples)
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkMachines re-runs a small request on every distinct machine of a
// workload three ways — the Engine, the split path, and the split path
// stepped cycle by cycle — and requires identical reports.
func checkMachines(ctx context.Context, res *childResult, machines []daesim.Machine, mode string, seed uint64) {
	eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: 1})
	if err != nil {
		res.fail("check engine: %v", err)
		return
	}
	for i, m := range machines {
		req := daesim.Request{
			Machine:  m,
			Workload: daesim.Workload{Kind: daesim.WorkloadMix, Seed: seedFor(seed, streamCheck, i)},
			Budget:   checkBudget(mode),
		}
		res.Attempted++
		want, err := eng.Run(ctx, req)
		if err != nil {
			res.fail("check machine %d: engine: %v", i, err)
			continue
		}
		for _, stepped := range []bool{false, true} {
			got, err := splitRun(ctx, nil, 0, req, stepped)
			if err != nil {
				res.fail("check machine %d (stepped=%v): %v", i, stepped, err)
				break
			}
			if runner.ReportHash(got) != runner.ReportHash(want) {
				res.fail("check machine %d (stepped=%v): report differs from the Engine's", i, stepped)
				break
			}
		}
	}
}

// ----------------------------------------------------------------------------
// Closed-loop simulation workloads: single-cold and sampled-5m.

// simLoop describes a closed-loop workload: one client calling
// Engine.Run back to back, rotating over machines, every call on a
// never-seen seed.
type simLoop struct {
	machines []daesim.Machine
	budget   daesim.Budget
}

func sharedL2(m daesim.Machine) daesim.Machine {
	return m.WithHierarchy(64, daesim.SharedL2(256<<10, 8))
}

func singleCold(tiny bool) simLoop {
	l := simLoop{machines: []daesim.Machine{
		daesim.Figure2(4),
		daesim.Figure2(1).WithL2Latency(256),
		sharedL2(daesim.Figure2(4)),
		sharedL2(daesim.Figure2(1).WithCores(4)),
	}}
	if tiny {
		l.budget = daesim.Budget{WarmupInsts: 2_000, MeasureInsts: 8_000}
	}
	return l
}

func sampled5M(tiny bool) simLoop {
	l := simLoop{
		machines: []daesim.Machine{
			daesim.Figure2(1),
			daesim.Figure2(1).WithL2Latency(256),
			daesim.Figure2(4),
			daesim.Figure2(4).WithL2Latency(256),
		},
		budget: daesim.Budget{MeasureInsts: 5_000_000, Mode: daesim.ModeSampled},
	}
	if tiny {
		l.budget = daesim.Budget{WarmupInsts: 2_000, MeasureInsts: 400_000, Mode: daesim.ModeSampled}
	}
	return l
}

func (l simLoop) request(i int, seed uint64) daesim.Request {
	return daesim.Request{
		Label:    fmt.Sprintf("op %d", i),
		Machine:  l.machines[i%len(l.machines)],
		Workload: daesim.Workload{Kind: daesim.WorkloadMix, Seed: seed},
		Budget:   l.budget,
	}
}

// setupRepeats is how many times a child sets its system up; setup_s is
// their median.
const setupRepeats = 5

func runSimLoop(ctx context.Context, cfg config, l simLoop) (childResult, error) {
	var res childResult
	// Set-up: a fresh Engine and one small run through it, which loads
	// the code paths the timed calls take.
	var eng *daesim.Engine
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		var err error
		if eng, err = daesim.NewEngine(daesim.EngineOpts{Workers: 2}); err != nil {
			return res, err
		}
		warm := l.request(k, seedFor(cfg.seed, streamSetup, k))
		warm.Budget = checkBudget(l.budget.Mode)
		if _, err := eng.Run(ctx, warm); err != nil {
			return res, fmt.Errorf("set-up run: %w", err)
		}
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
	}

	timed := cfg.seconds
	if cfg.traced {
		timed /= 2 // the other half runs traced
	}
	var hashes []string
	var first *daesim.Request // the first successful call
	start := time.Now()
	res.ReadyUnixNano = start.UnixNano()
	for i := 0; i == 0 || time.Since(start).Seconds() < timed; i++ {
		req := l.request(i, seedFor(cfg.seed, streamOps, i))
		t0 := time.Now()
		rep, err := eng.Run(ctx, req)
		lat := time.Since(t0)
		res.Attempted++
		if err != nil {
			res.fail("op %d: %v", i, err)
			continue
		}
		if msg := sane(req, rep); msg != "" {
			res.fail("op %d: %s", i, msg)
			continue
		}
		if first == nil {
			first = &req
		}
		res.Ops = append(res.Ops, float64(lat)/1e6)
		res.Insts += budgetInsts(req)
		hashes = append(hashes, runner.ReportHash(rep))
	}
	res.WallS = time.Since(start).Seconds()

	checkGolden(cfg, &res, hashes)
	// Cross-path check: the first call again, through the split path.
	if first != nil {
		rep, err := splitRun(ctx, nil, 0, *first, false)
		if err != nil || runner.ReportHash(rep) != hashes[0] {
			res.fail("%s through sim.Run differs from the Engine's report (err=%v)", first.Label, err)
		}
	}
	if !cfg.traced {
		return res, nil
	}

	// Traced half: the same loop through the split path, with spans and a
	// CPU profile, on seeds of its own.
	t := newTracer()
	prof, err := startProfile()
	if err != nil {
		return res, err
	}
	var tracedMs []float64
	var tracedInsts int64
	var gaps []float64
	tStart := time.Now()
	prevEnd := tStart
	for i := 0; i == 0 || time.Since(tStart).Seconds() < timed; i++ {
		req := l.request(i, seedFor(cfg.seed, streamTracedOps, i))
		t0 := time.Now()
		gaps = append(gaps, float64(t0.Sub(prevEnd))/1e6)
		rep, err := splitRun(ctx, t, int64(i+1), req, false)
		prevEnd = time.Now()
		res.Attempted++
		if err != nil {
			res.fail("traced op %d: %v", i, err)
			continue
		}
		if msg := sane(req, rep); msg != "" {
			res.fail("traced op %d: %s", i, msg)
			continue
		}
		tracedMs = append(tracedMs, float64(prevEnd.Sub(t0))/1e6)
		tracedInsts += budgetInsts(req)
	}
	tWall := time.Since(tStart)
	if err := prof.stop(); err != nil {
		return res, err
	}
	res.Layers = t.layerMetrics(prof)
	res.Layers["runner.worker_busy_frac"] = ratio(sum(tracedMs)/1e3, 2*tWall.Seconds())
	st := eng.Stats()
	res.Layers["runner.cache_hit_frac"] = ratio(float64(st.CacheHits), float64(st.CacheHits+st.Simulated))
	res.Layers["loadgen.lag_ms_tail"], _ = tail(gaps)
	res.Layers["trace.overhead_frac"] = ratio(sum(tracedMs)/float64(tracedInsts), sum(res.Ops)/float64(res.Insts)) - 1
	if err := t.rec.write(spansPath(cfg)); err != nil {
		return res, err
	}
	checkMachines(ctx, &res, l.machines, l.budget.Mode, cfg.seed)
	return res, nil
}

// ----------------------------------------------------------------------------
// sweep-fig4: one Figure-4 pass per child process.

func fig4Budget(cfg config) experiments.Budget {
	b := experiments.DefaultBudget()
	if cfg.tiny {
		b = experiments.ShortBudget()
	}
	b.Seed = seedFor(cfg.seed, streamOps, 0)
	return b
}

// digest fingerprints a set of (request hash, report hash) pairs
// independently of completion order.
func digest(pairs []string) string {
	sort.Strings(pairs)
	h := sha256.New()
	for _, p := range pairs {
		h.Write([]byte(p + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runSweepPass runs one untraced Figure-4 pass the way dae-sweep does,
// timing each point's completion through the runner's progress hook.
func runSweepPass(ctx context.Context, cfg config) (childResult, error) {
	var res childResult
	var (
		mu    sync.Mutex
		done  []time.Duration
		pairs []string
	)
	var start time.Time
	r, err := runner.New(runner.Options{
		Workers: 2,
		OnProgress: func(p runner.Progress) {
			mu.Lock()
			defer mu.Unlock()
			done = append(done, time.Since(start))
			res.Attempted++
			switch {
			case p.Err != nil:
				res.fail("%s: %v", p.Job.Key, p.Err)
			case p.Report.Graduated < p.Job.Budget.MeasureInsts:
				res.fail("%s: graduated %d of %d", p.Job.Key, p.Report.Graduated, p.Job.Budget.MeasureInsts)
			default:
				res.Insts += p.Job.Budget.WarmupInsts + p.Job.Budget.MeasureInsts
				pairs = append(pairs, p.Hash+" "+runner.ReportHash(p.Report))
			}
		},
	})
	if err != nil {
		return res, err
	}
	b := fig4Budget(cfg)
	b.Runner = r
	b.Ctx = ctx
	start = time.Now()
	res.ReadyUnixNano = start.UnixNano()
	_, err = experiments.Fig4(b)
	wall := time.Since(start)
	if err != nil && res.Failed == 0 {
		res.fail("fig4: %v", err)
	}
	res.WallS = wall.Seconds()
	if res.Failed == 0 {
		res.Ops = []float64{float64(wall) / 1e6}
	}
	res.Digest = digest(pairs)
	checkGolden(cfg, &res, []string{res.Digest})

	// Worker occupancy: each of the runner's 2 workers takes the next
	// point the moment it finishes one, so each is busy from the start
	// until its last completion — the last two completions overall.
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	var busy time.Duration
	for _, d := range done[max(len(done)-2, 0):] {
		busy += d
	}
	st := r.Stats()
	res.Layers = map[string]float64{
		"runner.worker_busy_frac": ratio(float64(busy), 2*float64(wall)),
		"runner.cache_hit_frac":   ratio(float64(st.CacheHits), float64(st.CacheHits+st.Simulated)),
	}
	return res, nil
}

// fig4Requests rebuilds the pass's points as Requests, in the order
// experiments.Fig4 submits them; the traced pass's digest matching the
// untraced pass's is what shows the rebuild is faithful.
func fig4Requests(b experiments.Budget) []daesim.Request {
	var reqs []daesim.Request
	for _, c := range experiments.Fig4Configs {
		for _, lat := range experiments.PaperLatencies {
			m := daesim.Figure2(c.Threads).WithL2Latency(lat)
			m.ScaleWithLatency = true
			if !c.Decoupled {
				m = m.NonDecoupled()
			}
			t := int64(m.TotalContexts())
			reqs = append(reqs, daesim.Request{
				Label:    fmt.Sprintf("fig4 %v L2=%d", c, lat),
				Machine:  m,
				Workload: daesim.Workload{Kind: daesim.WorkloadMix, Seed: b.Seed},
				Budget:   daesim.Budget{WarmupInsts: b.WarmupPerThread * t, MeasureInsts: b.MeasurePerThread * t},
			})
		}
	}
	return reqs
}

// runTracedSweepPass runs the same pass through the split path on 2
// goroutines, with spans and a CPU profile.
func runTracedSweepPass(ctx context.Context, cfg config) (childResult, error) {
	var res childResult
	reqs := fig4Requests(fig4Budget(cfg))
	t := newTracer()
	prof, err := startProfile()
	if err != nil {
		return res, err
	}
	var (
		mu    sync.Mutex
		pairs []string
		wg    sync.WaitGroup
	)
	next := make(chan int)
	start := time.Now()
	res.ReadyUnixNano = start.UnixNano()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rep, err := splitRun(ctx, t, int64(i+1), reqs[i], false)
				mu.Lock()
				res.Attempted++
				if err != nil {
					res.fail("%s: %v", reqs[i].Label, err)
				} else if msg := sane(reqs[i], rep); msg != "" {
					res.fail("%s: %s", reqs[i].Label, msg)
				} else {
					res.Insts += budgetInsts(reqs[i])
					pairs = append(pairs, reqs[i].Hash()+" "+runner.ReportHash(rep))
				}
				mu.Unlock()
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)
	if err := prof.stop(); err != nil {
		return res, err
	}
	res.WallS = wall.Seconds()
	if res.Failed == 0 {
		res.Ops = []float64{float64(wall) / 1e6}
	}
	res.Digest = digest(pairs)
	checkGolden(cfg, &res, []string{res.Digest})
	res.Layers = t.layerMetrics(prof)
	if err := t.rec.write(spansPath(cfg)); err != nil {
		return res, err
	}
	var machines []daesim.Machine
	for _, r := range reqs {
		machines = append(machines, r.Machine)
	}
	checkMachines(ctx, &res, machines, "", cfg.seed)
	return res, nil
}
