package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	daesim "repro"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/serveapi"
)

// serve-mixed: an in-process fabric router in front of 2 dae-serve
// replicas sharing a content-addressed store, all on loopback HTTP,
// driven open loop by a generator with at most nproc client connections.

const (
	serveRate     = 50 // requests per second
	warmPoolSize  = 16
	sweepSize     = 4
	serveSetups   = 3
	serveSLOLimit = 250 * time.Millisecond // SLO.json's cached-run p99 cap
	maxLagMs      = 5                      // generator lag beyond which a run is suspect
)

// serveBudget is every generated request's budget.
func serveBudget(tiny bool) daesim.Budget {
	if tiny {
		return daesim.Budget{WarmupInsts: 1_000, MeasureInsts: 4_000}
	}
	return daesim.Budget{WarmupInsts: 10_000, MeasureInsts: 40_000}
}

func serveRequest(seed uint64, tiny bool) daesim.Request {
	return daesim.Request{
		Label:    fmt.Sprintf("serve %d", seed),
		Machine:  daesim.Figure2(1),
		Workload: daesim.Workload{Kind: daesim.WorkloadMix, Seed: seed},
		Budget:   serveBudget(tiny),
	}
}

// fabricStack is one booted serving fabric.
type fabricStack struct {
	dir      string
	engines  []*daesim.Engine
	replicas []*httptest.Server
	router   *fabric.Router
	front    *httptest.Server
	client   *http.Client
}

// bootStack starts 2 replicas over a fresh store in dir and a router in
// front of them. With rec set, every replica and router request gets a
// span.
func bootStack(dir string, rec *recorder) (*fabricStack, error) {
	s := &fabricStack{dir: dir}
	var urls []string
	for i := 0; i < 2; i++ {
		eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: 1, CacheDir: dir})
		if err != nil {
			s.close()
			return nil, err
		}
		h := serveapi.NewHandler(eng, 0, 0)
		if rec != nil {
			h = middleware(rec, "serveapi.handler", h)
		}
		srv := httptest.NewServer(h)
		s.engines = append(s.engines, eng)
		s.replicas = append(s.replicas, srv)
		urls = append(urls, srv.URL)
	}
	router, err := fabric.NewRouter(fabric.Config{Replicas: urls, StoreDir: dir})
	if err != nil {
		s.close()
		return nil, err
	}
	s.router = router
	var h http.Handler = router
	if rec != nil {
		h = middleware(rec, "fabric.handler", h)
	}
	s.front = httptest.NewServer(h)
	conns := runtime.NumCPU()
	s.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	return s, nil
}

func (s *fabricStack) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.front != nil {
		s.front.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, r := range s.replicas {
		r.Close()
	}
	os.RemoveAll(s.dir)
}

// post sends one request body and decodes a 200 reply into out.
func (s *fabricStack) post(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.front.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("malformed reply: %w", err)
	}
	return nil
}

// warmPool POSTs the pool through the router and returns each result's
// report hash, the reference every later cached reply must match.
func (s *fabricStack) warmPool(ctx context.Context, pool []daesim.Request) ([]string, error) {
	hashes := make([]string, len(pool))
	for i, req := range pool {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		var rr serveapi.RunResponse
		if err := s.post(ctx, "/v1/runs", body, &rr); err != nil {
			return nil, fmt.Errorf("warm request %d: %w", i, err)
		}
		if rr.Cached || rr.Report == nil {
			return nil, fmt.Errorf("warm request %d: want a fresh report (cached=%v)", i, rr.Cached)
		}
		hashes[i] = runner.ReportHash(*rr.Report)
	}
	return hashes, nil
}

// serveOp is one planned request: a single run or a sweep.
type serveOp struct {
	class string // "cached", "fresh" or "sweep"
	path  string
	body  []byte
	reqs  []daesim.Request
	// pool holds, per request, its warm-pool index, or -1 for a fresh one.
	pool []int
}

// servePlan lays out n requests: exactly 70% cached, 10% sweeps and the
// rest fresh, in a seeded order. Cached requests repeat warm-pool
// entries; fresh ones (and half of each sweep) use never-seen seeds from
// freshStream.
func servePlan(cfg config, n, phase, freshStream int, pool []daesim.Request) ([]serveOp, error) {
	rng := rand.New(rand.NewSource(int64(seedFor(cfg.seed, streamSchedule, phase))))
	nCached, nSweep := (n*7+5)/10, (n+5)/10
	classes := make([]string, n)
	for i := range classes {
		switch {
		case i < nCached:
			classes[i] = "cached"
		case i < nCached+nSweep:
			classes[i] = "sweep"
		default:
			classes[i] = "fresh"
		}
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	fresh := 0
	nextFresh := func() daesim.Request {
		fresh++
		return serveRequest(seedFor(cfg.seed, freshStream, fresh), cfg.tiny)
	}
	ops := make([]serveOp, n)
	for i, class := range classes {
		op := serveOp{class: class, path: "/v1/runs"}
		switch class {
		case "cached":
			k := rng.Intn(len(pool))
			op.reqs, op.pool = []daesim.Request{pool[k]}, []int{k}
		case "fresh":
			op.reqs, op.pool = []daesim.Request{nextFresh()}, []int{-1}
		case "sweep":
			op.path = "/v1/sweeps"
			for j := 0; j < sweepSize; j++ {
				if j < sweepSize/2 {
					k := rng.Intn(len(pool))
					op.reqs, op.pool = append(op.reqs, pool[k]), append(op.pool, k)
				} else {
					op.reqs, op.pool = append(op.reqs, nextFresh()), append(op.pool, -1)
				}
			}
			rng.Shuffle(sweepSize, func(a, b int) {
				op.reqs[a], op.reqs[b] = op.reqs[b], op.reqs[a]
				op.pool[a], op.pool[b] = op.pool[b], op.pool[a]
			})
		}
		var err error
		if class == "sweep" {
			op.body, err = json.Marshal(serveapi.SweepRequest{Requests: op.reqs})
		} else {
			op.body, err = json.Marshal(op.reqs[0])
		}
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

// outcome is one sent request as the generator saw it. Every time is
// measured from the request's due time.
type outcome struct {
	lag, connWait, latency time.Duration
	err                    error
	// reports are the reply's report hashes, cached its cached flags.
	reports []string
	cached  []bool
	// freshReports keeps the fresh results for the memory-level counters.
	freshReports []daesim.Report
}

// openLoop sends ops at serveRate from now on, each due at a fixed
// offset from the start however late earlier ones ran, over at most
// nproc client connections. With rec set, each request gets a span from
// its due time to its reply, and a child span for its wait to be sent.
func (s *fabricStack) openLoop(ctx context.Context, ops []serveOp, rec *recorder) ([]outcome, time.Duration) {
	out := make([]outcome, len(ops))
	due := make([]time.Time, len(ops))
	enq := make([]time.Time, len(ops))
	work := make(chan int, len(ops)) // sized to the number of sends: the dispatcher never blocks
	interval := time.Second / serveRate
	start := time.Now().Add(10 * time.Millisecond)
	for i := range due {
		due[i] = start.Add(time.Duration(i) * interval)
	}
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				picked := time.Now()
				o := s.send(ctx, ops[i])
				o.lag = enq[i].Sub(due[i])
				o.connWait = picked.Sub(enq[i])
				o.latency = time.Since(due[i])
				out[i] = o
				if rec != nil {
					op := int64(i + 1)
					id := rec.add("loadgen.request", op, 0, rec.at(due[i]), rec.at(due[i].Add(o.latency)))
					rec.add("loadgen.wait", op, id, rec.at(due[i]), rec.at(picked))
				}
			}
		}()
	}
	for i := range ops {
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		enq[i] = time.Now()
		work <- i
	}
	close(work)
	wg.Wait()
	return out, time.Since(start)
}

// send issues one planned request and decodes what came back.
func (s *fabricStack) send(ctx context.Context, op serveOp) outcome {
	var o outcome
	if op.class == "sweep" {
		var sr serveapi.SweepResponse
		if o.err = s.post(ctx, op.path, op.body, &sr); o.err != nil {
			return o
		}
		if len(sr.Results) != len(op.reqs) {
			o.err = fmt.Errorf("sweep returned %d results for %d requests", len(sr.Results), len(op.reqs))
			return o
		}
		for _, r := range sr.Results {
			if r.Error != "" {
				o.err = fmt.Errorf("sweep point: %s", r.Error)
				return o
			}
			o.reports = append(o.reports, reportHashOf(r.Report))
			o.cached = append(o.cached, r.Cached)
		}
		for j, r := range sr.Results {
			if op.pool[j] < 0 && r.Report != nil {
				o.freshReports = append(o.freshReports, *r.Report)
			}
		}
		return o
	}
	var rr serveapi.RunResponse
	if o.err = s.post(ctx, op.path, op.body, &rr); o.err != nil {
		return o
	}
	o.reports, o.cached = []string{reportHashOf(rr.Report)}, []bool{rr.Cached}
	if op.pool[0] < 0 && rr.Report != nil {
		o.freshReports = []daesim.Report{*rr.Report}
	}
	return o
}

// verify checks a reply: a warm-pool request must come back cached with
// its original report, a fresh one must have been simulated.
func verify(op serveOp, o outcome, poolHashes []string) error {
	if o.err != nil {
		return o.err
	}
	for j, k := range op.pool {
		switch {
		case o.reports[j] == "":
			return fmt.Errorf("%s request %d: no report", op.class, j)
		case k >= 0 && !o.cached[j]:
			return fmt.Errorf("%s request %d: warm-pool request answered cached=false", op.class, j)
		case k >= 0 && o.reports[j] != poolHashes[k]:
			return fmt.Errorf("%s request %d: cached report differs from its warm-pool original", op.class, j)
		case k < 0 && o.cached[j]:
			return fmt.Errorf("%s request %d: never-seen request answered cached=true", op.class, j)
		}
	}
	return nil
}

// reportHashOf hashes a reply's report ("" when the reply had none).
func reportHashOf(rep *daesim.Report) string {
	if rep == nil {
		return ""
	}
	return runner.ReportHash(*rep)
}

func opInsts(op serveOp) int64 {
	var n int64
	for _, r := range op.reqs {
		n += budgetInsts(r)
	}
	return n
}

// runServe measures serve-mixed in a child.
func runServe(ctx context.Context, cfg config) (childResult, error) {
	var res childResult
	tmp := filepath.Join(cfg.outdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return res, err
	}
	newDir := func() (string, error) { return os.MkdirTemp(tmp, "store-") }

	// Set-up: boot the fabric and POST the warm pool, several times over;
	// the last stack serves the timed phase. Each set-up has its own pool
	// seeds, so none replays another's streams.
	var (
		st         *fabricStack
		pool       []daesim.Request
		poolHashes []string
	)
	for k := 0; k < serveSetups; k++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		dir, err := newDir()
		if err != nil {
			return res, err
		}
		if st, err = bootStack(dir, nil); err != nil {
			return res, err
		}
		pool = pool[:0]
		for j := 0; j < warmPoolSize; j++ {
			pool = append(pool, serveRequest(seedFor(cfg.seed, streamWarmPool, k*warmPoolSize+j), cfg.tiny))
		}
		if poolHashes, err = st.warmPool(ctx, pool); err != nil {
			st.close()
			return res, err
		}
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
	}
	defer func() { st.close() }()
	checkGolden(cfg, &res, poolHashes)

	timed := cfg.seconds
	if cfg.traced {
		timed /= 2
	}
	n := max(int(timed*serveRate+0.5), 1)
	ops, err := servePlan(cfg, n, 0, streamFresh, pool)
	if err != nil {
		return res, err
	}
	res.ReadyUnixNano = time.Now().UnixNano()
	outs, wall := st.openLoop(ctx, ops, nil)
	res.WallS = wall.Seconds()
	var late int
	byClass := map[string][]float64{}
	var checked int
	var lags []float64
	for i, o := range outs {
		lags = append(lags, float64(o.lag)/1e6)
		res.Attempted++
		if err := verify(ops[i], o, poolHashes); err != nil {
			res.fail("request %d (%s): %v", i, ops[i].class, err)
			continue
		}
		ms := float64(o.latency) / 1e6
		res.Ops = append(res.Ops, ms)
		res.Insts += opInsts(ops[i])
		byClass[ops[i].class] = append(byClass[ops[i].class], ms)
		if o.latency > serveSLOLimit {
			late++
		}
		// Cross-path check: recompute the first fresh runs in-process.
		if ops[i].class == "fresh" && checked < 2 {
			checked++
			rep, err := splitRun(ctx, nil, 0, ops[i].reqs[0], false)
			if err != nil || runner.ReportHash(rep) != o.reports[0] {
				res.fail("request %d: served report differs from sim.Run's (err=%v)", i, err)
			}
		}
	}
	for _, class := range []string{"cached", "fresh", "sweep"} {
		p50 := median(byClass[class])
		tv, tp := tail(byClass[class])
		fmt.Fprintf(os.Stderr, "daebench: serve-mixed %-6s n=%-4d p50=%.2fms p%.0f=%.2fms\n",
			class, len(byClass[class]), p50, tp, tv)
	}
	if late > 0 {
		fmt.Fprintf(os.Stderr, "daebench: serve-mixed: %d requests over the %v SLO limit\n", late, serveSLOLimit)
	}
	// Late sends mean the generator, not the fabric, set the pace. The
	// lateness is still charged to the latencies (timed from due times).
	if lag, p := tail(lags); lag > maxLagMs {
		fmt.Fprintf(os.Stderr, "daebench: serve-mixed: WARNING generator lag p%.0f %.2fms exceeds %vms; this run's latencies are suspect\n", p, lag, maxLagMs)
	}
	if !cfg.traced {
		return res, nil
	}
	res.Layers, err = tracedServe(ctx, cfg, &res, newDir, n)
	return res, err
}

// tracedServe repeats the open loop on a second stack whose router and
// replicas record a span per request, with a CPU profile running.
func tracedServe(ctx context.Context, cfg config, res *childResult, newDir func() (string, error), n int) (map[string]float64, error) {
	dir, err := newDir()
	if err != nil {
		return nil, err
	}
	t := newTracer()
	st, err := bootStack(dir, t.rec)
	if err != nil {
		return nil, err
	}
	defer st.close()
	var pool []daesim.Request
	for j := 0; j < warmPoolSize; j++ {
		pool = append(pool, serveRequest(seedFor(cfg.seed, streamWarmPool, serveSetups*warmPoolSize+j), cfg.tiny))
	}
	poolHashes, err := st.warmPool(ctx, pool)
	if err != nil {
		return nil, err
	}
	ops, err := servePlan(cfg, n, 1, streamTracedFresh, pool)
	if err != nil {
		return nil, err
	}
	// The generator validates and hashes every request it sends, the
	// same calls the router and replicas make on receipt.
	for i, op := range ops {
		for _, r := range op.reqs {
			start := t.rec.now()
			if err := r.Validate(); err != nil {
				return nil, err
			}
			_ = r.Hash()
			t.rec.add("daesim.validate_hash", int64(i+1), 0, start, t.rec.now())
		}
	}
	routerBefore, replicaBefore := len(t.rec.named("fabric.handler")), len(t.rec.named("serveapi.handler"))
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	outs, wall := st.openLoop(ctx, ops, t.rec)
	if err := prof.stop(); err != nil {
		return nil, err
	}
	var lags, waits, lat []float64
	freshInsts := budgetInsts(serveRequest(0, cfg.tiny))
	for i, o := range outs {
		res.Attempted++
		if err := verify(ops[i], o, poolHashes); err != nil {
			res.fail("traced request %d (%s): %v", i, ops[i].class, err)
			continue
		}
		lags = append(lags, float64(o.lag)/1e6)
		waits = append(waits, float64(o.connWait)/1e6)
		lat = append(lat, float64(o.latency)/1e6)
		t.mu.Lock()
		for _, rep := range o.freshReports {
			t.insts += freshInsts
			t.addReport(rep)
		}
		t.mu.Unlock()
	}
	router := t.rec.named("fabric.handler")[routerBefore:]
	replica := t.rec.named("serveapi.handler")[replicaBefore:]
	out := t.layerMetrics(prof)
	reqs := float64(len(ops))
	out["fabric.self_us_per_req"] = float64(selfOutside(router, replica)) / 1e3 / reqs
	out["fabric.forwarded_per_req"] = float64(len(replica)) / reqs
	out["serveapi.busy_ms_per_req"] = float64(sumDur(replica)) / 1e6 / reqs
	out["runner.worker_busy_frac"] = ratio(float64(sumDur(replica)), 2*float64(wall))
	var hits, sims int64
	for _, e := range st.engines {
		s := e.Stats()
		hits, sims = hits+s.CacheHits, sims+s.Simulated
	}
	out["runner.cache_hit_frac"] = ratio(float64(hits), float64(hits+sims))
	out["loadgen.lag_ms_tail"], _ = tail(lags)
	out["loadgen.conn_wait_ms_tail"], _ = tail(waits)
	out["trace.overhead_frac"] = ratio(median(lat), median(res.Ops)) - 1
	return out, t.rec.write(spansPath(cfg))
}
