package daesim

import (
	"context"
	"errors"
	"sync"

	"repro/internal/runner"
)

// EngineOpts configures an Engine.
type EngineOpts struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS). The bound
	// is global across every Run/RunBatch call sharing the Engine.
	Workers int
	// CacheDir enables the on-disk result cache tier ("" = in-memory
	// only). The directory is shared with dae-sweep/dae-sim -cache:
	// entries are one JSON file per Request hash, so results computed by
	// any of them serve the others.
	CacheDir string
}

// Stats counts an Engine's lifetime activity: fresh simulations, cache
// hits (memory, disk, or deduplicated in-flight runs), failures, and
// cache write errors.
type Stats = runner.Stats

// ProgressEvent distinguishes the two kinds of Progress.
type ProgressEvent string

// Progress event kinds.
const (
	// ProgressSnapshot is a periodic in-run snapshot of an executing
	// simulation.
	ProgressSnapshot ProgressEvent = "snapshot"
	// ProgressDone reports one finished request (fresh, cached or
	// failed) with the Engine's cache-stats snapshot.
	ProgressDone ProgressEvent = "done"
)

// Progress is one event on an Engine's progress stream (see Watch).
type Progress struct {
	Event ProgressEvent `json:"event"`
	// Label and Hash identify the request.
	Label string `json:"label"`
	Hash  string `json:"hash,omitempty"`
	// Phase, Graduated, TargetInsts, Cycles and TotalCycles describe an
	// executing run (ProgressSnapshot; Graduated/Cycles count within the
	// current phase window).
	Phase       string `json:"phase,omitempty"`
	Graduated   int64  `json:"graduated,omitempty"`
	TargetInsts int64  `json:"targetInsts,omitempty"`
	Cycles      int64  `json:"cycles,omitempty"`
	TotalCycles int64  `json:"totalCycles,omitempty"`
	// Done/Total position the finished request within its batch, and
	// Cached/Err describe its outcome (ProgressDone).
	Done   int   `json:"done,omitempty"`
	Total  int   `json:"total,omitempty"`
	Cached bool  `json:"cached,omitempty"`
	Err    error `json:"-"`
	// Error carries Err's message for serialized streams (dae-serve's
	// /v1/runs/{hash}/events endpoint marshals Progress verbatim; error
	// values themselves do not round-trip through JSON).
	Error string `json:"error,omitempty"`
	// Stats is the Engine's lifetime cache-stats snapshot (ProgressDone).
	Stats Stats `json:"stats,omitzero"`
}

// RunResult is one request's outcome in a RunBatch. Results align with
// the request slice: results[i] belongs to reqs[i] (normalized).
type RunResult struct {
	// Request is the normalized request.
	Request Request
	// Hash is the request's content hash ("" when validation failed
	// before hashing).
	Hash string
	// Report is valid when Err is nil.
	Report Report
	// Cached reports whether Report came from the cache (memory, disk,
	// or a deduplicated concurrent run) rather than a fresh simulation.
	Cached bool
	Err    error
}

// Engine executes Requests: it validates them up front, consults the
// two-level result cache, deduplicates identical in-flight Requests so
// concurrent clients share one simulation, bounds concurrency with a
// global worker semaphore, and persists every fresh result the moment
// it completes (when a cache directory is configured). An Engine is safe
// for concurrent use and is intended to be shared — dae-serve runs one
// Engine for all of its HTTP traffic.
type Engine struct {
	r *runner.Runner

	mu   sync.Mutex
	subs map[*subscriber]bool
}

// subscriber is one Watch or WatchHash channel. A non-empty hash filters
// it to that request's events and ends it with that request's done
// event.
type subscriber struct {
	ch   chan Progress
	hash string
}

// NewEngine builds an Engine.
func NewEngine(opts EngineOpts) (*Engine, error) {
	e := &Engine{subs: make(map[*subscriber]bool)}
	r, err := runner.New(runner.Options{
		Workers:  opts.Workers,
		CacheDir: opts.CacheDir,
		OnProgress: func(p runner.Progress) {
			errMsg := ""
			if p.Err != nil {
				errMsg = p.Err.Error()
			}
			e.publish(Progress{
				Event:  ProgressDone,
				Label:  p.Job.Key,
				Hash:   p.Hash,
				Done:   p.Done,
				Total:  p.Total,
				Cached: p.Cached,
				Err:    p.Err,
				Error:  errMsg,
				Stats:  e.Stats(),
			})
		},
		OnSnapshot: func(s runner.Snapshot) {
			e.publish(Progress{
				Event:       ProgressSnapshot,
				Label:       s.Job.Key,
				Hash:        s.Hash,
				Phase:       s.Sim.Phase,
				Graduated:   s.Sim.Graduated,
				TargetInsts: s.Sim.TargetInsts,
				Cycles:      s.Sim.Cycles,
				TotalCycles: s.Sim.TotalCycles,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	e.r = r
	return e, nil
}

// Run executes one Request and returns its Report. Identical concurrent
// Requests (same Hash) execute the simulation once — later callers wait
// for the first and share its result — and previously computed results
// are served from the cache without simulating. Cancelling ctx aborts
// the run promptly and returns ctx's error; aborted runs are never
// cached.
func (e *Engine) Run(ctx context.Context, req Request) (Report, error) {
	req = req.Normalized()
	if err := req.Validate(); err != nil {
		return Report{}, err
	}
	results, _ := e.r.RunContext(ctx, []runner.Job{req.job()})
	res := results[0]
	if res.Err != nil {
		// Surface the caller's own cancellation as the bare context
		// error, the contract ctx-aware callers test with ==.
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(res.Err, ctxErr) {
			return Report{}, ctxErr
		}
		return Report{}, res.Err
	}
	return res.Report, nil
}

// RunBatch executes every Request of a batch and returns one RunResult
// per request, in request order. Failures never abort the batch; the
// returned error (a *BatchError, nil when everything succeeded)
// aggregates them. Requests duplicated within the batch — or already
// cached, or identical to anything else in flight on the Engine —
// simulate once.
func (e *Engine) RunBatch(ctx context.Context, reqs []Request) ([]RunResult, error) {
	out := make([]RunResult, len(reqs))
	jobs := make([]runner.Job, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
	for i, rq := range reqs {
		rq = rq.Normalized()
		out[i].Request = rq
		if err := rq.Validate(); err != nil {
			out[i].Err = err
			continue
		}
		jobs = append(jobs, rq.job())
		idx = append(idx, i)
	}
	// Per-job failures are carried in the results; the aggregate error is
	// rebuilt below so it also covers validation failures.
	results, _ := e.r.RunContext(ctx, jobs)
	for k, res := range results {
		i := idx[k]
		out[i].Hash = res.Hash
		out[i].Report = res.Report
		out[i].Cached = res.Cached
		out[i].Err = res.Err
	}
	var batchErr *BatchError
	for _, res := range out {
		if res.Err != nil {
			if batchErr == nil {
				batchErr = &BatchError{Total: len(reqs)}
			}
			batchErr.Errors = append(batchErr.Errors, res.Err)
		}
	}
	if batchErr != nil {
		return out, batchErr
	}
	return out, nil
}

// Lookup returns the cached Report for a Request content hash without
// executing anything: the read-only path behind dae-serve's GET
// endpoint.
func (e *Engine) Lookup(hash string) (Report, bool) {
	return e.r.Lookup(hash)
}

// Stats returns a snapshot of the Engine's lifetime counters.
func (e *Engine) Stats() Stats {
	return e.r.Stats()
}

// Watch subscribes to the Engine's progress stream: periodic
// ProgressSnapshot events from every executing simulation (graduated
// instructions, cycles) and a ProgressDone event per finished request
// (with cache-stats snapshots). The channel's buffer holds buf events
// (minimum 16); events beyond a full buffer are dropped rather than
// slowing the simulation. The returned stop function unsubscribes and
// closes the channel.
func (e *Engine) Watch(buf int) (<-chan Progress, func()) {
	return e.subscribe("", buf)
}

// WatchHash subscribes to one request's slice of the progress stream:
// the returned channel carries only events whose Hash matches, and is
// closed right after that request's ProgressDone event — the
// subscription ends itself when the run does. This is the plumbing
// behind dae-serve's GET /v1/runs/{hash}/events stream: one HTTP client
// watches one run to completion without filtering the full firehose.
//
// Like Watch, events are dropped rather than allowed to slow the
// simulation when the consumer lags (buf is the channel buffer, minimum
// 16). The returned stop function unsubscribes early; it is safe to call
// even after the channel has closed itself.
func (e *Engine) WatchHash(hash string, buf int) (<-chan Progress, func()) {
	return e.subscribe(hash, buf)
}

// subscribe registers a subscriber and returns its channel and an
// idempotent stop function.
func (e *Engine) subscribe(hash string, buf int) (<-chan Progress, func()) {
	s := &subscriber{ch: make(chan Progress, max(buf, 16)), hash: hash}
	e.mu.Lock()
	e.subs[s] = true
	e.mu.Unlock()
	stop := func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.unsubscribeLocked(s)
	}
	return s.ch, stop
}

// unsubscribeLocked removes s and closes its channel, once.
func (e *Engine) unsubscribeLocked(s *subscriber) {
	if e.subs[s] {
		delete(e.subs, s)
		close(s.ch)
	}
}

// publish fans an event out to every subscriber it matches, dropping it
// for subscribers whose buffer is full, and ends a hash subscription
// with its request's done event.
func (e *Engine) publish(p Progress) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for s := range e.subs {
		if s.hash != "" && s.hash != p.Hash {
			continue
		}
		select {
		case s.ch <- p:
		default:
		}
		if s.hash != "" && p.Event == ProgressDone {
			e.unsubscribeLocked(s)
		}
	}
}
