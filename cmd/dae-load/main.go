// Command dae-load is the fabric's deterministic load gate: it drives a
// dae-router (or a bare dae-serve) with a seeded, reproducible mix of
// cached runs, fresh runs and sweeps from a fixed pool of closed-loop
// workers, keeps every latency it measures, and prints a JSON report
// with exact per-class percentiles on stdout. With -slo it is a gate:
// the process exits nonzero when the measured numbers violate the
// thresholds in an SLO file. TestSLOGate runs that gate against an
// in-process fabric on every `go test ./...`.
//
// Examples:
//
//	dae-load -target http://127.0.0.1:8180 -slo SLO.json
//	dae-load -target http://127.0.0.1:8180 -requests 1000 -concurrency 16 -seed 7
//
// Determinism: the request schedule — class sequence, which cached
// request each draw hits, fresh-request seeds, sweep compositions — is
// fully determined by -seed. Two runs with the same flags issue the
// same requests in the same order; only the measured latencies differ.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	daesim "repro"
	"repro/internal/serveapi"
)

// classes of generated traffic.
const (
	classCached = "cached" // a pre-warmed run: must hit the store
	classFresh  = "fresh"  // a never-seen run: must simulate
	classSweep  = "sweep"  // a batch mixing warm and fresh points
)

// The traffic shape. Only the request count, the worker count and the
// seed vary between the gate and an exploratory run; everything else is
// the one shape the SLO thresholds were set against.
const (
	warmPool  = 8   // distinct requests pre-warmed for the cached class
	sweepSize = 4   // requests per generated sweep
	mixCached = 0.7 // share of cached runs in the schedule
	mixFresh  = 0.2 // share of fresh runs; the rest (0.1) are sweeps

	budgetWarmup  = 500  // simulation warm-up instructions per request
	budgetMeasure = 2000 // simulation measure instructions per request

	clientTimeout = 60 * time.Second // per-request client timeout
)

// loadConfig is the harness configuration (the parsed flags).
type loadConfig struct {
	Target      string `json:"target"`
	Requests    int    `json:"requests"`
	Concurrency int    `json:"concurrency"`
	Seed        int64  `json:"seed"`
}

// classStats accumulates one traffic class's outcomes.
type classStats struct {
	mu        sync.Mutex
	latUs     []int64 // completed requests only: neither shed nor failed
	requests  int
	errors    int
	shed      int
	cacheHits int
	firstErr  string
}

// classReport is one class's slice of the JSON report.
type classReport struct {
	Requests int `json:"requests"`
	// Errors are hard failures (transport errors, 5xx, malformed
	// replies). Backpressure refusals (429/503 + Retry-After) count as
	// Shed, not Errors: the fabric refusing load it cannot absorb is the
	// admission queue working, not the fabric breaking.
	Errors    int            `json:"errors"`
	Shed      int            `json:"shed"`
	CacheHits int            `json:"cacheHits"`
	ErrorRate float64        `json:"errorRate"`
	FirstErr  string         `json:"firstError,omitempty"`
	Latency   latencySummary `json:"latency"`
}

// latencySummary digests one class's completed-request latencies.
type latencySummary struct {
	Count  int64   `json:"count"`
	MeanUs int64   `json:"meanUs"`
	P50Us  int64   `json:"p50Us"`
	P90Us  int64   `json:"p90Us"`
	P99Us  int64   `json:"p99Us"`
	MaxUs  int64   `json:"maxUs"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P99Ms  float64 `json:"p99Ms"`
}

// loadReport is the harness's JSON output.
type loadReport struct {
	Config      loadConfig             `json:"config"`
	DurationSec float64                `json:"durationSec"`
	Throughput  float64                `json:"throughputRps"`
	Classes     map[string]classReport `json:"classes"`
	SLO         *sloResult             `json:"slo,omitempty"`
}

// sloThresholds is the committed SLO file's shape (SLO.json).
type sloThresholds struct {
	// CachedRunP99Ms caps the cached-run class's p99 latency.
	CachedRunP99Ms float64 `json:"cachedRunP99Ms"`
	// FreshRunMaxErrorRate caps the fresh-run class's hard-error rate
	// (shed requests excluded).
	FreshRunMaxErrorRate float64 `json:"freshRunMaxErrorRate"`
}

// sloResult records the gate's verdict inside the report.
type sloResult struct {
	Thresholds sloThresholds `json:"thresholds"`
	Violations []string      `json:"violations,omitempty"`
	Pass       bool          `json:"pass"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it loads -target, prints the report on stdout and
// returns the exit status (2 for a bad command line, 1 for a failed run
// or a violated SLO).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dae-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg loadConfig
	fs.StringVar(&cfg.Target, "target", "", "base URL of the dae-router (or dae-serve) to load (required)")
	fs.IntVar(&cfg.Requests, "requests", 200, "total requests to issue")
	fs.IntVar(&cfg.Concurrency, "concurrency", 8, "closed-loop worker count")
	fs.Int64Var(&cfg.Seed, "seed", 1, "schedule seed (same seed = same request sequence)")
	sloPath := fs.String("slo", "", "SLO thresholds file; violations exit nonzero")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if cfg.Target == "" {
		fmt.Fprintln(stderr, "dae-load: -target is required")
		return 2
	}
	cfg.Target = strings.TrimRight(cfg.Target, "/")

	rep, err := load(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "dae-load:", err)
		return 1
	}
	exit := 0
	if *sloPath != "" {
		res, err := checkSLO(*sloPath, rep)
		if err != nil {
			fmt.Fprintln(stderr, "dae-load:", err)
			return 1
		}
		rep.SLO = res
		for _, v := range res.Violations {
			fmt.Fprintln(stderr, "dae-load: SLO VIOLATION:", v)
		}
		if res.Pass {
			fmt.Fprintln(stderr, "dae-load: SLO gate passed")
		} else {
			exit = 1
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "dae-load:", err)
		return 1
	}
	return exit
}

// op is one planned request: a class tag and the pre-marshaled body.
type op struct {
	class string
	path  string
	body  []byte
}

// buildPlan deterministically expands the config into the warm pool and
// the full request schedule.
func buildPlan(cfg loadConfig) (warm []op, schedule []op, err error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	reqAt := func(seed uint64) daesim.Request {
		r := daesim.MixRequest(daesim.Figure2(1), daesim.RunOpts{
			WarmupInsts: budgetWarmup, MeasureInsts: budgetMeasure, Seed: seed})
		r.Label = fmt.Sprintf("load-%d", seed)
		return r
	}
	marshal := func(v any) []byte {
		b, merr := json.Marshal(v)
		if merr != nil && err == nil {
			err = merr
		}
		return b
	}
	// Warm pool: seeds 1..warmPool, POSTed once before measurement begins.
	pool := make([]daesim.Request, warmPool)
	for i := range pool {
		pool[i] = reqAt(uint64(i + 1))
		warm = append(warm, op{class: classCached, path: "/v1/runs", body: marshal(pool[i])})
	}
	// Fresh seeds count up from far above the warm pool's range.
	freshSeed := uint64(1_000_000)
	nextFresh := func() daesim.Request {
		freshSeed++
		return reqAt(freshSeed)
	}
	for i := 0; i < cfg.Requests; i++ {
		switch x := rng.Float64(); {
		case x < mixCached:
			schedule = append(schedule, op{class: classCached, path: "/v1/runs",
				body: marshal(pool[rng.Intn(len(pool))])})
		case x < mixCached+mixFresh:
			schedule = append(schedule, op{class: classFresh, path: "/v1/runs",
				body: marshal(nextFresh())})
		default:
			sw := serveapi.SweepRequest{}
			for j := 0; j < sweepSize; j++ {
				if rng.Float64() < 0.5 {
					sw.Requests = append(sw.Requests, pool[rng.Intn(len(pool))])
				} else {
					sw.Requests = append(sw.Requests, nextFresh())
				}
			}
			schedule = append(schedule, op{class: classSweep, path: "/v1/sweeps",
				body: marshal(sw)})
		}
	}
	return warm, schedule, err
}

// load warms the pool, drives the schedule through -concurrency
// closed-loop workers and assembles the report.
func load(ctx context.Context, cfg loadConfig, logw io.Writer) (*loadReport, error) {
	warm, schedule, err := buildPlan(cfg)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: clientTimeout}

	// Warm phase (unmeasured): populate the store so the cached class
	// actually measures the cached path.
	fmt.Fprintf(logw, "dae-load: warming %d requests against %s\n", len(warm), cfg.Target)
	for i, o := range warm {
		if _, _, err := issue(ctx, client, cfg.Target, o); err != nil {
			return nil, fmt.Errorf("warm request %d: %w", i, err)
		}
	}

	stats := map[string]*classStats{classCached: {}, classFresh: {}, classSweep: {}}
	workers := max(cfg.Concurrency, 1)
	fmt.Fprintf(logw, "dae-load: %d requests, %d workers (seed %d)\n", len(schedule), workers, cfg.Seed)

	start := time.Now()
	ops := make(chan op)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range ops {
				measureOne(ctx, client, cfg.Target, o, stats[o.class])
			}
		}()
	}
	for _, o := range schedule {
		ops <- o
	}
	close(ops)
	wg.Wait()
	elapsed := time.Since(start)

	rep := &loadReport{
		Config:      cfg,
		DurationSec: elapsed.Seconds(),
		Classes:     make(map[string]classReport),
	}
	if elapsed > 0 {
		rep.Throughput = float64(len(schedule)) / elapsed.Seconds()
	}
	for class, cs := range stats {
		cr := classReport{
			Requests: cs.requests, Errors: cs.errors, Shed: cs.shed,
			CacheHits: cs.cacheHits, FirstErr: cs.firstErr,
			Latency: summarize(cs.latUs),
		}
		if cs.requests > 0 {
			cr.ErrorRate = float64(cs.errors) / float64(cs.requests)
		}
		rep.Classes[class] = cr
		fmt.Fprintf(logw, "dae-load: %-6s n=%-4d err=%-3d shed=%-3d hit=%-4d p50=%.1fms p99=%.1fms\n",
			class, cr.Requests, cr.Errors, cr.Shed, cr.CacheHits,
			cr.Latency.P50Ms, cr.Latency.P99Ms)
	}
	return rep, nil
}

// summarize sorts us in place and digests it. Percentiles are exact
// samples by the nearest-rank rule: pN is the ceil(n·N/100)-th smallest.
func summarize(us []int64) latencySummary {
	n := len(us)
	s := latencySummary{Count: int64(n)}
	if n == 0 {
		return s
	}
	slices.Sort(us)
	var sum int64
	for _, v := range us {
		sum += v
	}
	rank := func(p int) int64 { return us[(n*p+99)/100-1] }
	s.MeanUs = sum / int64(n)
	s.P50Us, s.P90Us, s.P99Us, s.MaxUs = rank(50), rank(90), rank(99), us[n-1]
	s.MeanMs = float64(s.MeanUs) / 1000
	s.P50Ms = float64(s.P50Us) / 1000
	s.P99Ms = float64(s.P99Us) / 1000
	return s
}

// issue POSTs one op and classifies the outcome: cached counts the
// results served without simulating, shed reports a backpressure
// refusal, and err a hard failure.
func issue(ctx context.Context, client *http.Client, target string, o op) (cached int, shed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, false, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		if resp.Header.Get("Retry-After") != "" {
			return 0, true, nil
		}
	}
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	switch o.path {
	case "/v1/runs":
		var rr serveapi.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil || rr.Report == nil {
			return 0, false, fmt.Errorf("malformed run response: %.200s", body)
		}
		if rr.Cached {
			cached = 1
		}
	case "/v1/sweeps":
		var sr serveapi.SweepResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			return 0, false, fmt.Errorf("malformed sweep response: %.200s", body)
		}
		if sr.Failed > 0 {
			return 0, false, fmt.Errorf("sweep failed %d results", sr.Failed)
		}
		for _, r := range sr.Results {
			if r.Cached {
				cached++
			}
		}
	}
	return cached, false, nil
}

// measureOne times one op into its class's stats.
func measureOne(ctx context.Context, client *http.Client, target string, o op, cs *classStats) {
	begin := time.Now()
	cached, shed, err := issue(ctx, client, target, o)
	lat := time.Since(begin)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.requests++
	cs.cacheHits += cached
	switch {
	case err != nil:
		cs.errors++
		if cs.firstErr == "" {
			cs.firstErr = err.Error()
		}
	case shed:
		cs.shed++
	default:
		cs.latUs = append(cs.latUs, lat.Microseconds())
	}
}

// checkSLO loads thresholds and grades the report against them.
func checkSLO(path string, rep *loadReport) (*sloResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("slo file: %w", err)
	}
	var thr sloThresholds
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&thr); err != nil {
		return nil, fmt.Errorf("slo file %s: %w", path, err)
	}
	res := &sloResult{Thresholds: thr}
	cached := rep.Classes[classCached]
	fresh := rep.Classes[classFresh]
	if thr.CachedRunP99Ms > 0 {
		if cached.Latency.Count == 0 {
			res.Violations = append(res.Violations, "no cached-run samples to grade p99 against")
		} else if cached.Latency.P99Ms > thr.CachedRunP99Ms {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"cached-run p99 %.1fms exceeds %.1fms", cached.Latency.P99Ms, thr.CachedRunP99Ms))
		}
	}
	// An error rate over zero completed runs proves nothing: a fabric
	// that shed every fresh run would otherwise pass with rate 0.
	if fresh.ErrorRate > thr.FreshRunMaxErrorRate {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"fresh-run error rate %.3f exceeds %.3f (first error: %s)",
			fresh.ErrorRate, thr.FreshRunMaxErrorRate, fresh.FirstErr))
	} else if fresh.Latency.Count == 0 {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"no completed fresh runs to grade the error rate against (%d requests, %d shed)",
			fresh.Requests, fresh.Shed))
	}
	res.Pass = len(res.Violations) == 0
	return res, nil
}
