// Package runner is the batch engine behind every simulation the
// repository runs — the figure sweeps, the public daesim.Engine and
// dae-serve: a deterministic worker-pool scheduler with content-addressed
// result caching. It also owns the run description itself.
//
// Every simulation point is described by a Job — a pure-data triple of
// (machine configuration, workload, instruction budget) — and
// identified by a canonical hash of that triple. Workload, TraceRef and
// Budget carry the public JSON wire tags (daesim re-exports them as
// aliases); Job.Normalized is the one normalizer, Validate the one
// validator, and Job.Hash the one place that knows the hash format. The
// runner validates every job it schedules but never normalizes one:
// experiments jobs hash exactly as written. The runner executes
// batches of jobs across a bounded worker pool and consults a two-level
// result cache first: repeated points within a process (two figures
// sweeping the same configuration) are simulated once, concurrent
// duplicates wait on one run through Flight (the single-flight the
// fabric router shares), and with an on-disk cache directory, re-runs
// across processes skip every point that already completed. Because
// each result is persisted the moment its simulation finishes, a long
// sweep that crashes or is cancelled resumes from where it stopped:
// re-running the same batch recomputes only the missing points.
//
// Unlike the ad-hoc helper it replaces, the runner never aborts a batch
// on the first failure: every job runs, partial results are collected,
// and all failures come back aggregated in a single *BatchError.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Options configures a Runner.
type Options struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS). The bound
	// is global: concurrent batches (and single-job runs) share one
	// semaphore, so a Runner embedded in a long-lived service never
	// exceeds it no matter how many callers overlap.
	Workers int
	// CacheDir enables the on-disk result cache tier ("" = in-memory
	// only). The directory is created if missing.
	CacheDir string
	// OnProgress, when set, is called after every job completes
	// (including cache hits and failures). Calls are serialized and
	// Done is monotonic; keep the callback fast — it runs under the
	// batch's bookkeeping lock.
	OnProgress func(Progress)
	// OnSnapshot, when set, receives periodic in-run progress snapshots
	// from every executing simulation (cache hits produce none): about
	// sixteen over a job's budget, at most one per
	// sim.DefaultProgressEvery graduated instructions. Calls may arrive
	// concurrently from different workers; keep the callback fast and
	// synchronize any shared state it touches.
	OnSnapshot func(Snapshot)
}

// Snapshot is an in-run progress report: one executing job's identity
// plus the simulator's point-in-time counters.
type Snapshot struct {
	// Job is the executing job and Hash its canonical content hash.
	Job  Job
	Hash string
	// Sim is the simulator's progress snapshot.
	Sim sim.Snapshot
}

// Progress is a structured progress report for one completed job.
type Progress struct {
	// Done and Total describe the batch ("Done of Total finished").
	Done, Total int
	// Job is the job that just finished.
	Job Job
	// Hash is the job's canonical content hash ("" when validation
	// failed before hashing).
	Hash string
	// Report is the job's result when Err is nil (zero otherwise), so
	// streaming consumers need no second lookup.
	Report stats.Report
	// Cached reports whether Job was served from the cache.
	Cached bool
	// Err is Job's failure, if any.
	Err error
}

// Result is one job's outcome. A batch's results always align with its
// jobs slice: results[i] belongs to jobs[i].
type Result struct {
	Job Job
	// Hash is the job's canonical content hash ("" when validation
	// failed before hashing).
	Hash string
	// Report is valid when Err is nil.
	Report stats.Report
	// Cached reports whether Report came from the cache (memory, disk,
	// or another in-flight worker) rather than a fresh simulation.
	Cached bool
	Err    error
}

// Stats counts a Runner's lifetime activity (across batches).
type Stats struct {
	// Simulated counts jobs that ran a fresh simulation.
	Simulated int64
	// CacheHits counts jobs served from the cache or an in-flight
	// duplicate.
	CacheHits int64
	// Failures counts jobs that returned an error.
	Failures int64
	// CacheWriteErrors counts disk-cache writes that failed. A failed
	// write never fails the job — the result is still returned and kept
	// in memory — but a non-zero count means re-runs will recompute.
	CacheWriteErrors int64
}

// Runner schedules batches of simulation jobs. It is safe for
// concurrent use; the cache, the in-flight deduplication table and the
// worker semaphore are shared across batches.
type Runner struct {
	workers    int
	cache      *cache
	onProgress func(Progress)
	onSnapshot func(Snapshot)
	// sem is the global simulation semaphore: every fresh simulation
	// (never a cache hit) holds one slot for its duration, bounding
	// concurrency across overlapping batches.
	sem chan struct{}

	flights Flight[stats.Report]

	mu    sync.Mutex
	stats Stats
}

// New builds a Runner.
func New(opts Options) (*Runner, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c, err := newCache(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	return &Runner{
		workers:    workers,
		cache:      c,
		onProgress: opts.OnProgress,
		onSnapshot: opts.OnSnapshot,
		sem:        make(chan struct{}, workers),
	}, nil
}

// Stats returns a snapshot of the runner's lifetime counters.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// RunContext executes every job of a batch across the worker pool and
// returns one Result per job, in job order. Failures never abort the
// batch: the remaining jobs still run, their results are collected, and
// the returned error (a *BatchError, nil when everything succeeded)
// aggregates every failure. Cancelling the context stops dispatching
// new jobs, aborts already-running simulations promptly (aborted runs
// are not cached), and fails undispatched jobs with the context's
// error; results completed before the cancellation are kept.
func (r *Runner) RunContext(ctx context.Context, jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	workers := r.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		wg      sync.WaitGroup
		next    = make(chan int)
		batchMu sync.Mutex
		done    int
	)
	finish := func(i int, res Result) {
		results[i] = res
		batchMu.Lock()
		done++
		// The callback runs under the same lock as the counter so the
		// reported Done sequence is monotonic.
		if r.onProgress != nil {
			r.onProgress(Progress{
				Done: done, Total: len(jobs),
				Job: res.Job, Hash: res.Hash, Report: res.Report,
				Cached: res.Cached, Err: res.Err,
			})
		}
		batchMu.Unlock()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				finish(i, r.runJob(ctx, jobs[i]))
			}
		}()
	}

	cancelled := -1
dispatch:
	for i := range jobs {
		select {
		case <-ctx.Done():
			cancelled = i
			break dispatch
		case next <- i:
		}
	}
	close(next)
	wg.Wait()

	if cancelled >= 0 {
		for i := cancelled; i < len(jobs); i++ {
			// Workers may have consumed indexes past the cancellation
			// point before it hit; only mark truly undispatched jobs.
			if results[i].Err == nil && results[i].Hash == "" {
				err := fmt.Errorf("runner: job %q: %w", jobs[i].Key, ctx.Err())
				r.count(&r.stats.Failures)
				finish(i, Result{Job: jobs[i], Err: err})
			}
		}
	}

	var batchErr *BatchError
	for _, res := range results {
		if res.Err != nil {
			if batchErr == nil {
				batchErr = &BatchError{Total: len(jobs)}
			}
			batchErr.Errors = append(batchErr.Errors, res.Err)
		}
	}
	if batchErr != nil {
		return results, batchErr
	}
	return results, nil
}

// runJob resolves one job: validation, a cache probe, then the
// single-flight, whose owner probes again and runs a fresh simulation
// under the global semaphore.
func (r *Runner) runJob(ctx context.Context, j Job) Result {
	if err := Validate(j); err != nil {
		r.count(&r.stats.Failures)
		return Result{Job: j, Err: fmt.Errorf("runner: job %q: %w", j.Key, err)}
	}
	h := j.Hash()
	if rep, ok := r.cache.get(h); ok {
		r.count(&r.stats.CacheHits)
		return Result{Job: j, Hash: h, Report: rep, Cached: true}
	}
	simulated := false
	rep, err := r.flights.Do(ctx, h, func() (stats.Report, error) {
		// A duplicate may have finished since the probe above.
		if rep, ok := r.cache.get(h); ok {
			return rep, nil
		}
		select {
		case r.sem <- struct{}{}:
		case <-ctx.Done():
			return stats.Report{}, fmt.Errorf("runner: job %q: %w", j.Key, ctx.Err())
		}
		var snap func(sim.Snapshot)
		if r.onSnapshot != nil {
			snap = func(s sim.Snapshot) { r.onSnapshot(Snapshot{Job: j, Hash: h, Sim: s}) }
		}
		rep, err := j.execute(ctx, snap)
		<-r.sem
		if err != nil {
			return rep, err
		}
		simulated = true
		if err := r.cache.put(h, j.Key, rep); err != nil {
			r.count(&r.stats.CacheWriteErrors)
		}
		return rep, nil
	})
	if err != nil && err == ctx.Err() {
		// Our own context ended while another caller's run was going.
		err = fmt.Errorf("runner: job %q: %w", j.Key, err)
	}
	switch {
	case err != nil:
		r.count(&r.stats.Failures)
	case simulated:
		r.count(&r.stats.Simulated)
	default:
		r.count(&r.stats.CacheHits)
	}
	// Whatever this call did not simulate came from the cache or another
	// caller's run, and is a hit unless it failed: a waiter that shares
	// its owner's failure failed too.
	return Result{Job: j, Hash: h, Report: rep, Cached: err == nil && !simulated, Err: err}
}

// count increments one lifetime counter.
func (r *Runner) count(n *int64) {
	r.mu.Lock()
	*n++
	r.mu.Unlock()
}

// Lookup returns the cached report for a job content hash, consulting
// the memory tier first and the disk tier second, without scheduling
// anything. It is the read-only path behind GET endpoints that serve
// previously computed results by hash.
func (r *Runner) Lookup(hash string) (stats.Report, bool) {
	return r.cache.get(hash)
}
