// Package fabric turns N dae-serve replicas into one horizontally
// scalable simulation service. It provides the pieces cmd/dae-router
// assembles:
//
//   - rank: rendezvous (highest-random-weight) hashing that orders the
//     replicas for every Request hash, so identical requests always land
//     on the same Engine (whose in-flight dedup then collapses them),
//     the rest of the order is the hash's failover chain, and a replica
//     joining or leaving moves only the keys it gains or loses.
//   - Queue: a bounded two-class admission queue — interactive runs are
//     admitted ahead of batch sweeps, overflow is refused immediately
//     (429 + Retry-After at the HTTP layer) and a draining router sheds
//     its waiters instead of stranding them.
//   - Router: the HTTP front end wiring these together. It collapses
//     concurrent identical forwards with the runner's single-flight
//     (runner.Flight), so a dead replica's in-flight work is recomputed
//     exactly once on the next replica of its chain no matter how many
//     clients were waiting, and it reads the shared content-addressed
//     result store (the replicas' common cache directory) with
//     runner.LoadEntry, so it serves any cached hash itself — even when
//     every replica is down.
//
// Reports served through the fabric are byte-identical to `dae-sim
// -json`: the router relays replica response bytes verbatim on the run
// path and keeps reports as raw JSON when reassembling sweeps.
package fabric

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	daesim "repro"
	"repro/internal/runner"
	"repro/internal/serveapi"
)

// Config configures a Router.
type Config struct {
	// Replicas are the dae-serve base URLs (e.g. "http://127.0.0.1:8177")
	// forming the fabric. At least one is required.
	Replicas []string
	// HealthEvery is the replica health-probe cadence (<= 0 = 1s).
	// Probes recover replicas that forwards marked dead.
	HealthEvery time.Duration
	// MaxActive bounds concurrently admitted client requests and MaxQueue
	// the arrivals waiting beyond that; everything past both gets 429
	// (<= 0 = 64 and 256).
	MaxActive, MaxQueue int
	// StoreDir mounts the replicas' shared content-addressed result store
	// read-only: the cache directory every replica's Engine writes
	// (dae-serve -cache), one JSON file per Request hash. The router reads
	// it through runner.LoadEntry, so it serves cache hits and
	// GET-by-hash itself, replicas dead or alive ("" = always forward).
	StoreDir string
}

// replicaState tracks one replica's liveness as seen by this router.
type replicaState struct {
	base  string
	alive atomic.Bool
}

// Router is the fabric front end: an http.Handler that routes
// simulation traffic across dae-serve replicas by rendezvous rank, with
// admission control in front and retry-on-replica-death behind.
// Construct with NewRouter, serve it, and Close it on shutdown (sheds
// the admission queue, stops health probes).
type Router struct {
	cfg      Config
	bases    []string // replica URLs, in Config order
	replicas map[string]*replicaState
	queue    *Queue
	flights  runner.Flight[*forwardResult]
	client   *http.Client
	mux      *http.ServeMux

	stopHealth context.CancelFunc
	healthDone chan struct{}
}

// forwardResult is one proxied replica response, relayed verbatim so
// fabric responses stay byte-identical to replica responses.
type forwardResult struct {
	status      int
	contentType string
	body        []byte
	replica     string
}

// NewRouter builds and starts a Router (health probes begin
// immediately).
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fabric: router needs at least one replica")
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = time.Second
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 64
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 256
	}
	rt := &Router{
		cfg:      cfg,
		replicas: make(map[string]*replicaState, len(cfg.Replicas)),
		queue:    NewQueue(cfg.MaxActive, cfg.MaxQueue),
		// No global timeout: event streams must outlive any fixed cap.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}},
	}
	for _, base := range cfg.Replicas {
		for len(base) > 0 && base[len(base)-1] == '/' {
			base = base[:len(base)-1]
		}
		if base == "" {
			return nil, fmt.Errorf("fabric: empty replica URL")
		}
		if _, dup := rt.replicas[base]; dup {
			return nil, fmt.Errorf("fabric: duplicate replica %s", base)
		}
		st := &replicaState{base: base}
		st.alive.Store(true) // optimistic: forwards self-correct
		rt.replicas[base] = st
		rt.bases = append(rt.bases, base)
	}
	// The router can boot before the first replica creates the store,
	// and an unusable path fails here rather than missing forever.
	if cfg.StoreDir != "" {
		if err := os.MkdirAll(cfg.StoreDir, 0o755); err != nil {
			return nil, fmt.Errorf("fabric: store dir: %w", err)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", rt.handleRun)
	mux.HandleFunc("POST /v1/sweeps", rt.handleSweep)
	mux.HandleFunc("GET /v1/runs/{hash}", rt.handleGet)
	mux.HandleFunc("GET /v1/runs/{hash}/events", rt.handleEvents)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux = mux

	hctx, cancel := context.WithCancel(context.Background())
	rt.stopHealth = cancel
	rt.healthDone = make(chan struct{})
	go rt.healthLoop(hctx)
	return rt, nil
}

// Close drains the admission queue (shedding waiters with 503) and stops
// the health probes. In-flight admitted work is not aborted.
func (rt *Router) Close() {
	rt.queue.Drain()
	rt.stopHealth()
	<-rt.healthDone
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// healthLoop probes every replica's /healthz on a fixed cadence. Forward
// failures mark replicas dead instantly; only probes mark them live
// again.
func (rt *Router) healthLoop(ctx context.Context) {
	defer close(rt.healthDone)
	ticker := time.NewTicker(rt.cfg.HealthEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			rt.probeAll(ctx)
		}
	}
}

// probeAll checks every replica concurrently.
func (rt *Router) probeAll(ctx context.Context) {
	timeout := rt.cfg.HealthEvery
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	var wg sync.WaitGroup
	for _, st := range rt.replicas {
		wg.Add(1)
		go func(st *replicaState) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, st.base+"/healthz", nil)
			if err != nil {
				st.alive.Store(false)
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				st.alive.Store(false)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			st.alive.Store(resp.StatusCode == http.StatusOK)
		}(st)
	}
	wg.Wait()
}

// rank orders members for key by rendezvous (highest-random-weight)
// hashing (Thaler & Ravishankar, 1998): each member scores FNV-1a of the
// key, a separator byte and the member, passed through mix64, and the
// members sort by descending score, ties broken by name. The first entry
// owns the key and the rest are its failover chain. Each score depends
// only on its own (key, member) pair, so the order is a pure function of
// the member set — every router computes the same chain — and removing a
// member moves only the keys it owned, each to the next entry of its
// chain, while an added member takes keys only for itself.
func rank(key string, members []string) []string {
	score := make(map[string]uint64, len(members))
	for _, m := range members {
		h := fnv.New64a()
		h.Write([]byte(key + "\x00" + m))
		score[m] = mix64(h.Sum64())
	}
	out := slices.Clone(members)
	slices.SortFunc(out, func(a, b string) int {
		return cmp.Or(cmp.Compare(score[b], score[a]), cmp.Compare(a, b))
	})
	return out
}

// mix64 is MurmurHash3's 64-bit finalizer. Raw FNV-1a barely mixes its
// last bytes into the high bits the ranking compares, so replicas whose
// URLs differ only in a port's last digit split keys unevenly (three
// loopback replicas took 50/25/25 of them).
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// chain returns the failover order for a key: its rendezvous rank with
// live replicas first (dead-marked ones stay at the tail — a probe may
// simply not have noticed a recovery yet, and trying them last never
// costs a live request anything).
func (rt *Router) chain(hash string) []string {
	ranked := rank(hash, rt.bases)
	ordered := make([]string, 0, len(ranked))
	for _, base := range ranked {
		if rt.replicas[base].alive.Load() {
			ordered = append(ordered, base)
		}
	}
	for _, base := range ranked {
		if !rt.replicas[base].alive.Load() {
			ordered = append(ordered, base)
		}
	}
	return ordered
}

// forward proxies one request down hash's failover chain, returning the
// first replica response. Transport failures mark the replica dead and
// move on — except the caller's own cancellation, which aborts the
// forward without blaming the replica.
func (rt *Router) forward(ctx context.Context, method, path string, body []byte, hash string) (*forwardResult, error) {
	var lastErr error
	for _, base := range rt.chain(hash) {
		req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if method == http.MethodPost {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			rt.replicas[base].alive.Store(false)
			lastErr = err
			continue
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Died mid-response. Retrying is safe: requests are
			// content-addressed and idempotent, and anything the dead
			// replica did complete is in the shared store.
			rt.replicas[base].alive.Store(false)
			lastErr = err
			continue
		}
		return &forwardResult{
			status:      resp.StatusCode,
			contentType: resp.Header.Get("Content-Type"),
			body:        respBody,
			replica:     base,
		}, nil
	}
	return nil, fmt.Errorf("fabric: no live replica reachable: %w", lastErr)
}

// relay writes a replica response verbatim.
func relay(w http.ResponseWriter, res *forwardResult) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// admissionError maps queue refusals to HTTP backpressure, asking the
// client to retry after a second.
func admissionError(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	switch err {
	case ErrQueueFull:
		serveapi.WriteJSON(w, http.StatusTooManyRequests, serveapi.ErrorResponse{Error: err.Error()})
	case ErrDraining:
		serveapi.WriteJSON(w, http.StatusServiceUnavailable, serveapi.ErrorResponse{Error: err.Error()})
	default: // caller cancelled while queued
		serveapi.WriteJSON(w, 499, serveapi.ErrorResponse{Error: err.Error()})
	}
}

// handleRun routes one Request to its owning replica by content hash.
// Cache hits are served straight from the shared store; misses forward
// under admission control, collapsed by single-flight so concurrent
// identical requests — including the retry stampede after a replica
// death — cost one recomputation.
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	var req daesim.Request
	raw, err := serveapi.DecodeBody(w, r, serveapi.DefaultMaxBody, &req)
	if err != nil {
		serveapi.WriteJSON(w, http.StatusBadRequest, serveapi.ErrorResponse{Error: err.Error()})
		return
	}
	hash := req.Hash()
	// Shared-store fast path: cached results bypass the queue entirely,
	// which is what keeps cached-run p99 flat under sweep pressure.
	if rep, ok := runner.LoadEntry(rt.cfg.StoreDir, hash); ok {
		serveapi.WriteJSON(w, http.StatusOK, serveapi.RunResponse{
			Label: req.Label, Hash: hash, Cached: true, Report: &rep})
		return
	}
	res, err := rt.flights.Do(r.Context(), hash, func() (*forwardResult, error) {
		release, err := rt.queue.Acquire(r.Context(), PriorityRun)
		if err != nil {
			return nil, err
		}
		defer release()
		return rt.forward(r.Context(), http.MethodPost, "/v1/runs", raw, hash)
	})
	switch {
	case err == ErrQueueFull || err == ErrDraining:
		admissionError(w, err)
	case err != nil:
		status := http.StatusServiceUnavailable
		if r.Context().Err() != nil {
			status = 499
		}
		serveapi.WriteJSON(w, status, serveapi.ErrorResponse{Error: err.Error()})
	default:
		relay(w, res)
	}
}

// routedResult mirrors serveapi.RunResponse with the report kept as raw
// bytes, so reassembling a sweep cannot perturb replica-produced report
// JSON.
type routedResult struct {
	Label  string          `json:"label,omitempty"`
	Hash   string          `json:"hash,omitempty"`
	Cached bool            `json:"cached"`
	Report json.RawMessage `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// routedSweepResponse is the router's sweep reply, shape-identical to
// serveapi.SweepResponse.
type routedSweepResponse struct {
	Results []routedResult `json:"results"`
	Failed  int            `json:"failed"`
}

// handleSweep scatters a sweep's requests across the fabric — each
// routed by its own content hash — and gathers the results in request
// order. The sweep holds one admission slot; its internal fan-out is
// bounded to two forwards per replica, at least four.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sweep serveapi.SweepRequest
	if _, err := serveapi.DecodeBody(w, r, serveapi.DefaultMaxBody, &sweep); err != nil {
		serveapi.WriteJSON(w, http.StatusBadRequest, serveapi.ErrorResponse{Error: err.Error()})
		return
	}
	if len(sweep.Requests) == 0 {
		serveapi.WriteJSON(w, http.StatusBadRequest, serveapi.ErrorResponse{Error: serveapi.EmptySweepError})
		return
	}
	if len(sweep.Requests) > serveapi.MaxSweepRequests {
		serveapi.WriteJSON(w, http.StatusBadRequest, serveapi.ErrorResponse{
			Error: serveapi.SweepTooLargeError(len(sweep.Requests))})
		return
	}
	release, err := rt.queue.Acquire(r.Context(), PrioritySweep)
	if err != nil {
		admissionError(w, err)
		return
	}
	defer release()

	results := make([]routedResult, len(sweep.Requests))
	sem := make(chan struct{}, max(2*len(rt.replicas), 4))
	var wg sync.WaitGroup
	for i, rq := range sweep.Requests {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, rq daesim.Request) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = rt.runOne(r.Context(), rq)
		}(i, rq)
	}
	wg.Wait()

	resp := routedSweepResponse{Results: results}
	for i := range results {
		if results[i].Error != "" {
			resp.Failed++
		}
	}
	serveapi.WriteJSON(w, http.StatusOK, resp)
}

// runOne resolves one sweep point: store, then a single-flighted forward
// to the owner chain.
func (rt *Router) runOne(ctx context.Context, req daesim.Request) routedResult {
	hash := req.Hash()
	if rep, ok := runner.LoadEntry(rt.cfg.StoreDir, hash); ok {
		raw, err := json.Marshal(&rep)
		if err == nil {
			return routedResult{Label: req.Label, Hash: hash, Cached: true, Report: raw}
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return routedResult{Label: req.Label, Error: fmt.Sprintf("encode request: %v", err)}
	}
	res, err := rt.flights.Do(ctx, hash, func() (*forwardResult, error) {
		return rt.forward(ctx, http.MethodPost, "/v1/runs", body, hash)
	})
	if err != nil {
		return routedResult{Label: req.Label, Hash: hash, Error: err.Error()}
	}
	if res.status != http.StatusOK {
		var e serveapi.ErrorResponse
		json.Unmarshal(res.body, &e)
		if e.Error == "" {
			e.Error = fmt.Sprintf("replica %s: status %d", res.replica, res.status)
		}
		rr := routedResult{Label: req.Label, Error: e.Error}
		if res.status != http.StatusBadRequest {
			// Replicas omit the hash only for requests that failed
			// validation (before hashing).
			rr.Hash = hash
		}
		return rr
	}
	var rr routedResult
	if err := json.Unmarshal(res.body, &rr); err != nil {
		return routedResult{Label: req.Label, Hash: hash, Error: fmt.Sprintf("replica %s: malformed response: %v", res.replica, err)}
	}
	return rr
}

// handleGet serves a result by hash: from the shared store if mounted
// (no replica involved — this path survives total replica loss), else
// proxied down the owner chain.
func (rt *Router) handleGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if rep, ok := runner.LoadEntry(rt.cfg.StoreDir, hash); ok {
		serveapi.WriteJSON(w, http.StatusOK, serveapi.RunResponse{Hash: hash, Cached: true, Report: &rep})
		return
	}
	res, err := rt.forward(r.Context(), http.MethodGet, "/v1/runs/"+hash, nil, hash)
	if err != nil {
		serveapi.WriteJSON(w, http.StatusServiceUnavailable, serveapi.ErrorResponse{Error: err.Error()})
		return
	}
	relay(w, res)
}

// handleEvents proxies a run's progress stream from its owning replica,
// flushing chunk by chunk so SSE events reach the client as they happen.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	flusher, canFlush := w.(http.Flusher)
	var lastErr error
	for _, base := range rt.chain(hash) {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, base+"/v1/runs/"+hash+"/events", nil)
		if err != nil {
			break
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			rt.replicas[base].alive.Store(false)
			lastErr = err
			continue
		}
		defer resp.Body.Close()
		for _, h := range []string{"Content-Type", "Cache-Control"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 4<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				if canFlush {
					flusher.Flush()
				}
			}
			if err != nil {
				return // io.EOF ends the stream; mid-stream errors end it too
			}
		}
	}
	serveapi.WriteJSON(w, http.StatusServiceUnavailable, serveapi.ErrorResponse{
		Error: fmt.Sprintf("fabric: no live replica for event stream: %v", lastErr)})
}

// ReplicaStatus is one replica's liveness in the router's health reply.
type ReplicaStatus struct {
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
}

// Health is the router's GET /healthz reply.
type Health struct {
	// OK is true while at least one replica is believed live.
	OK       bool            `json:"ok"`
	Replicas []ReplicaStatus `json:"replicas"`
	// QueueActive/QueueWaiting snapshot the admission queue.
	QueueActive  int `json:"queueActive"`
	QueueWaiting int `json:"queueWaiting"`
}

// handleHealth reports the router's own liveness: replica states and
// queue depth.
func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := Health{}
	for base, st := range rt.replicas {
		alive := st.alive.Load()
		h.Replicas = append(h.Replicas, ReplicaStatus{URL: base, Alive: alive})
		if alive {
			h.OK = true
		}
	}
	sort.Slice(h.Replicas, func(i, j int) bool { return h.Replicas[i].URL < h.Replicas[j].URL })
	h.QueueActive, h.QueueWaiting = rt.queue.Depth()
	status := http.StatusOK
	if !h.OK {
		status = http.StatusServiceUnavailable
	}
	serveapi.WriteJSON(w, status, h)
}
