package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testBudget is small enough that a single job runs in milliseconds but
// still graduates through warm-up and measurement windows.
func testBudget() Budget {
	return Budget{WarmupInsts: 500, MeasureInsts: 2_000}
}

// mixJob builds a quick mix job on an n-thread Figure-2 machine.
func mixJob(key string, threads int, seed uint64) Job {
	return Job{
		Key:      key,
		Machine:  config.Figure2(threads),
		Workload: Workload{Kind: WorkloadMix, Seed: seed},
		Budget:   testBudget(),
	}
}

// benchJob builds a quick single-benchmark job.
func benchJob(key, bench string, l2 int64) Job {
	return Job{
		Key:      key,
		Machine:  config.Figure2(1).WithL2Latency(l2),
		Workload: Workload{Kind: WorkloadBench, Bench: bench},
		Budget:   testBudget(),
	}
}

func testJobs() []Job {
	return []Job{
		mixJob("mix-1t", 1, 0),
		mixJob("mix-2t", 2, 0),
		benchJob("swim-16", "swim", 16),
		benchJob("swim-64", "swim", 64),
	}
}

func mustRunner(t *testing.T, opts Options) *Runner {
	t.Helper()
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestHashIgnoresKeyAndSeparatesContent(t *testing.T) {
	a := mixJob("fig3 threads=1", 1, 0)
	b := mixJob("fig5 threads=1 L2=16", 1, 0)
	if a.Hash() != b.Hash() {
		t.Error("hash depends on the human-readable key")
	}
	for name, other := range map[string]Job{
		"seed":    mixJob("x", 1, 7),
		"threads": mixJob("x", 2, 0),
		"bench":   benchJob("x", "swim", 16),
		"budget": {Key: "x", Machine: config.Figure2(1),
			Workload: Workload{Kind: WorkloadMix}, Budget: Budget{WarmupInsts: 500, MeasureInsts: 2_001}},
	} {
		if other.Hash() == a.Hash() {
			t.Errorf("%s change did not change the hash", name)
		}
	}
	m := config.Figure2(1)
	m.Mem.L2Latency = 17
	diff := Job{Key: "x", Machine: m, Workload: Workload{Kind: WorkloadMix}, Budget: testBudget()}
	if diff.Hash() == a.Hash() {
		t.Error("machine change did not change the hash")
	}
}

func TestSecondRunHitsCacheAndIsIdentical(t *testing.T) {
	r := mustRunner(t, Options{Workers: 4})
	jobs := testJobs()
	first, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Simulated; got != int64(len(jobs)) {
		t.Fatalf("first run simulated %d jobs, want %d", got, len(jobs))
	}
	second, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Simulated; got != int64(len(jobs)) {
		t.Fatalf("second run performed %d new simulations, want 0", got-int64(len(jobs)))
	}
	for i := range second {
		if !second[i].Cached {
			t.Errorf("job %q not served from cache on re-run", second[i].Job.Key)
		}
		if !reflect.DeepEqual(first[i].Report, second[i].Report) {
			t.Errorf("job %q: cached report differs from computed report", second[i].Job.Key)
		}
	}
}

func TestCachedAndUncachedReportsBitIdentical(t *testing.T) {
	jobs := testJobs()
	// Uncached reference: a fresh runner per run.
	ref, err := mustRunner(t, Options{Workers: 2}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Cached path: a disk-backed runner, run twice, then a second
	// disk-backed runner reading the first one's entries.
	dir := t.TempDir()
	warm := mustRunner(t, Options{Workers: 2, CacheDir: dir})
	if _, err := warm.Run(jobs); err != nil {
		t.Fatal(err)
	}
	cold := mustRunner(t, Options{Workers: 2, CacheDir: dir})
	got, err := cold.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sim := cold.Stats().Simulated; sim != 0 {
		t.Fatalf("disk-cached run simulated %d jobs, want 0", sim)
	}
	for i := range jobs {
		want, _ := json.Marshal(ref[i].Report)
		have, _ := json.Marshal(got[i].Report)
		if string(want) != string(have) {
			t.Errorf("job %q: disk round-trip altered the report\nwant %s\nhave %s",
				jobs[i].Key, want, have)
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	jobs := testJobs()
	ref, err := mustRunner(t, Options{Workers: 1}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := mustRunner(t, Options{Workers: 7}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(ref[i].Report, wide[i].Report) {
			t.Errorf("job %q: report depends on the worker count", jobs[i].Key)
		}
	}
}

func TestDuplicatePointsSimulateOnce(t *testing.T) {
	r := mustRunner(t, Options{Workers: 8})
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = mixJob(fmt.Sprintf("dup-%d", i), 1, 0) // same point, different keys
	}
	results, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Simulated; got != 1 {
		t.Fatalf("%d simulations for 8 identical points, want 1", got)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0].Report, results[i].Report) {
			t.Fatal("deduplicated results differ")
		}
	}
}

func TestBatchCollectsAllErrorsAndPartialResults(t *testing.T) {
	r := mustRunner(t, Options{Workers: 4})
	bad1 := mixJob("bad-threads", 1, 0)
	bad1.Machine.Threads = 0
	bad2 := benchJob("bad-bench", "no-such-benchmark", 16)
	jobs := []Job{mixJob("good-a", 1, 0), bad1, bad2, mixJob("good-b", 2, 0)}

	results, err := r.Run(jobs)
	if err == nil {
		t.Fatal("batch with invalid jobs returned nil error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BatchError", err)
	}
	if len(be.Errors) != 2 || be.Total != 4 {
		t.Fatalf("BatchError has %d/%d failures, want 2/4", len(be.Errors), be.Total)
	}
	msg := err.Error()
	for _, want := range []string{"bad-threads", "no-such-benchmark"} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregated error missing %q:\n%s", want, msg)
		}
	}
	// The good jobs still produced reports (partial-result collection).
	for _, i := range []int{0, 3} {
		if results[i].Err != nil || results[i].Report.Graduated == 0 {
			t.Errorf("good job %q has no result alongside failures", results[i].Job.Key)
		}
	}
}

func TestCancelledSweepResumesFromDiskCache(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{
		mixJob("p0", 1, 0), mixJob("p1", 1, 1), mixJob("p2", 1, 2),
		mixJob("p3", 1, 3), mixJob("p4", 1, 4), mixJob("p5", 1, 5),
	}

	// Cancel the sweep after the second completed point; one worker so
	// the dispatch order is deterministic.
	ctx, cancel := context.WithCancel(context.Background())
	r1, err := New(Options{Workers: 1, CacheDir: dir, OnProgress: func(p Progress) {
		if p.Done == 2 {
			cancel()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.RunContext(ctx, jobs); err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	completed := r1.Stats().Simulated
	if completed == 0 || completed == int64(len(jobs)) {
		t.Fatalf("cancelled sweep completed %d of %d points", completed, len(jobs))
	}
	onDisk, err := r1.cache.diskEntries()
	if err != nil {
		t.Fatal(err)
	}
	if int64(onDisk) != completed {
		t.Fatalf("%d checkpointed entries for %d completed points", onDisk, completed)
	}

	// A fresh process re-runs the same sweep: only the remainder is
	// simulated.
	r2 := mustRunner(t, Options{Workers: 2, CacheDir: dir})
	results, err := r2.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Stats().Simulated; got != int64(len(jobs))-completed {
		t.Fatalf("resume simulated %d points, want %d", got, int64(len(jobs))-completed)
	}
	for _, res := range results {
		if res.Err != nil || res.Report.Graduated == 0 {
			t.Errorf("job %q missing after resume", res.Job.Key)
		}
	}
}

func TestCorruptedDiskEntryIsRecomputed(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{mixJob("p", 1, 0)}
	r1 := mustRunner(t, Options{CacheDir: dir})
	want, err := r1.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the entry to garbage.
	path := filepath.Join(dir, jobs[0].Hash()+".json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := mustRunner(t, Options{CacheDir: dir})
	got, err := r2.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats().Simulated != 1 {
		t.Fatal("corrupted entry was served instead of recomputed")
	}
	if !reflect.DeepEqual(want[0].Report, got[0].Report) {
		t.Fatal("recomputed report differs")
	}
}

func TestMismatchedHashEntryIsIgnored(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{mixJob("p", 1, 0)}
	r1 := mustRunner(t, Options{CacheDir: dir})
	if _, err := r1.Run(jobs); err != nil {
		t.Fatal(err)
	}
	// Copy the valid entry under a different point's hash — a model of a
	// renamed/aliased file. The embedded hash no longer matches.
	raw, err := os.ReadFile(filepath.Join(dir, jobs[0].Hash()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	other := mixJob("q", 1, 99)
	if err := os.WriteFile(filepath.Join(dir, other.Hash()+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := mustRunner(t, Options{CacheDir: dir})
	if _, err := r2.Run([]Job{other}); err != nil {
		t.Fatal(err)
	}
	if r2.Stats().Simulated != 1 {
		t.Fatal("entry with mismatched hash was trusted")
	}
}

func TestOrphanedTempFilesSwept(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, strings.Repeat("ab", 8)+".tmp1234")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs := []Job{mixJob("p", 1, 0)}
	r := mustRunner(t, Options{CacheDir: dir})
	if _, err := r.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphaned .tmp file survived cache startup")
	}
	if n, _ := r.cache.diskEntries(); n != 1 {
		t.Errorf("%d disk entries, want 1", n)
	}
}

func TestProgressReporting(t *testing.T) {
	var events []Progress
	r := mustRunner(t, Options{Workers: 2, OnProgress: func(p Progress) {
		events = append(events, p)
	}})
	jobs := testJobs()
	if _, err := r.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(jobs) {
		t.Fatalf("%d progress events for %d jobs", len(events), len(jobs))
	}
	last := events[len(events)-1]
	if last.Done != len(jobs) || last.Total != len(jobs) {
		t.Fatalf("final progress %d/%d, want %d/%d", last.Done, last.Total, len(jobs), len(jobs))
	}
	// Re-run: every event reports a cache hit.
	events = nil
	if _, err := r.Run(jobs); err != nil {
		t.Fatal(err)
	}
	for _, p := range events {
		if !p.Cached {
			t.Errorf("job %q not reported as cached on re-run", p.Job.Key)
		}
	}
	if events[len(events)-1].CacheHits != len(jobs) {
		t.Errorf("final cache-hit count %d, want %d", events[len(events)-1].CacheHits, len(jobs))
	}
}

func TestValidateRejectsBadJobs(t *testing.T) {
	good := mixJob("ok", 1, 0)
	if err := Validate(good); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	bench := benchJob("ok", "swim", 16)
	if err := Validate(bench); err != nil {
		t.Fatalf("valid bench job rejected: %v", err)
	}
	trace := good
	trace.Workload = Workload{Kind: WorkloadTrace, Trace: &TraceRef{Path: "swim.dct"}}
	if err := Validate(trace); err != nil {
		t.Fatalf("valid trace job rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Job)
		want error
	}{
		{"budget", func(j *Job) { j.Budget.MeasureInsts = 0 }, ErrInvalidRequest},
		{"kind", func(j *Job) { j.Workload.Kind = "interleaved" }, ErrInvalidRequest},
		{"machine", func(j *Job) { j.Machine.Threads = -1 }, config.ErrInvalid},
		{"bench with a segment length", func(j *Job) { *j = bench; j.Workload.SegmentLen = 4096 }, ErrInvalidRequest},
		{"trace with a seed", func(j *Job) { *j = trace; j.Workload.Seed = 7 }, ErrInvalidRequest},
		{"mix naming a benchmark", func(j *Job) { j.Workload.Bench = "swim" }, ErrInvalidRequest},
		{"negative warm-up", func(j *Job) { j.Budget.WarmupInsts = -1 }, ErrInvalidRequest},
	} {
		j := good
		tc.edit(&j)
		if err := Validate(j); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want an error wrapping %q", tc.name, err, tc.want)
		}
	}
}

func TestCancelAbortsRunningSimulationPromptly(t *testing.T) {
	r := mustRunner(t, Options{Workers: 1})
	huge := mixJob("huge", 1, 0)
	huge.Budget = Budget{WarmupInsts: 500, MeasureInsts: 500_000_000}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results, err := r.RunContext(ctx, []Job{huge})
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("mid-run cancellation took %v", elapsed)
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("job error %v, want context.Canceled", results[0].Err)
	}
	// Aborted simulations must not poison the cache.
	if _, ok := r.Lookup(huge.Hash()); ok {
		t.Fatal("aborted run left a cache entry")
	}
	// The runner stays usable after a cancellation.
	ok := mixJob("ok", 1, 0)
	if _, err := r.Run([]Job{ok}); err != nil {
		t.Fatalf("runner broken after cancellation: %v", err)
	}
}

func TestGlobalSemaphoreBoundsOverlappingBatches(t *testing.T) {
	// A 1-worker runner receiving three concurrent batches may only ever
	// have one simulation in flight; the OnSnapshot stream alone proves
	// it. A job runs from its first snapshot to its final window-boundary
	// snapshot (measure phase, target reached), which the simulator emits
	// before the job gives its semaphore slot back, so no snapshot of one
	// job may arrive while another is running.
	var mu sync.Mutex
	running := make(map[string]bool)
	peak := 0
	r, err := New(Options{
		Workers:       1,
		SnapshotEvery: 200,
		OnSnapshot: func(s Snapshot) {
			mu.Lock()
			defer mu.Unlock()
			running[s.Job.Key] = true
			peak = max(peak, len(running))
			if s.Sim.Phase == sim.PhaseMeasure && s.Sim.Graduated >= s.Sim.TargetInsts {
				delete(running, s.Job.Key)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for b := 0; b < 3; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			// Distinct seeds so batches cannot dedup onto each other.
			if _, err := r.Run([]Job{mixJob(fmt.Sprintf("b%d", b), 1, uint64(10+b))}); err != nil {
				t.Error(err)
			}
		}(b)
	}
	wg.Wait()
	if peak > 1 {
		t.Fatalf("%d simulations were in flight on a 1-worker runner", peak)
	}
	if got := r.Stats().Simulated; got != 3 {
		t.Fatalf("simulated %d, want 3", got)
	}
}

func TestLookupServesBothTiers(t *testing.T) {
	dir := t.TempDir()
	j := mixJob("p", 1, 0)
	r1 := mustRunner(t, Options{CacheDir: dir})
	if _, ok := r1.Lookup(j.Hash()); ok {
		t.Fatal("lookup hit before anything ran")
	}
	want, err := r1.Run([]Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if rep, ok := r1.Lookup(j.Hash()); !ok || rep.Graduated != want[0].Report.Graduated {
		t.Fatal("memory-tier lookup failed")
	}
	// A fresh runner sees the entry through the disk tier — and lookup
	// never simulates.
	r2 := mustRunner(t, Options{CacheDir: dir})
	if _, ok := r2.Lookup(j.Hash()); !ok {
		t.Fatal("disk-tier lookup failed")
	}
	if r2.Stats().Simulated != 0 {
		t.Fatal("lookup triggered a simulation")
	}
}

func TestCustomWorkloadJobs(t *testing.T) {
	b, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	b.Name = "swim-variant"
	j := Job{
		Key:      "custom",
		Machine:  config.Figure2(1),
		Workload: Workload{Kind: WorkloadCustom, Custom: &b, Seed: 3},
		Budget:   testBudget(),
	}
	if err := Validate(j); err != nil {
		t.Fatalf("valid custom job rejected: %v", err)
	}
	r := mustRunner(t, Options{})
	results, err := r.Run([]Job{j, j})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Simulated != 1 {
		t.Error("identical custom jobs not deduplicated")
	}
	if results[0].Report.Graduated == 0 {
		t.Error("custom job produced no work")
	}
	// The equivalent bench job must hash differently (kind + spec are in
	// the hash) even though the generated stream would match.
	bench := Job{Key: "bench", Machine: j.Machine, Workload: Workload{Kind: WorkloadBench, Bench: "swim", Seed: 3}, Budget: j.Budget}
	if bench.Hash() == j.Hash() {
		t.Error("custom and bench jobs share a hash")
	}
	missing := j
	missing.Workload.Custom = nil
	if err := Validate(missing); err == nil {
		t.Error("custom job without a model accepted")
	}
}

// TestMixBenchHashesUnchangedByCustomField pins the cache schema: adding
// the Custom workload field must not move any existing mix/bench job
// hash (the on-disk sweep caches would all be invalidated), and the
// workload's wire tags must not reach the hash input.
func TestMixBenchHashesUnchangedByCustomField(t *testing.T) {
	for _, j := range testJobs() {
		raw, err := json.Marshal(j.hashInput())
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), "Custom") || !strings.Contains(string(raw), `"Workload":{"Kind":`) {
			t.Fatalf("hash input has a Custom field or wire-tagged names: %s", raw)
		}
	}
}

// TestWaiterRecomputesAfterOwnerTimeout mirrors the owner-cancelled
// retry for the deadline flavor: a dedup waiter whose owner hit its own
// per-request deadline must recompute under its own context instead of
// inheriting the timeout.
func TestWaiterRecomputesAfterOwnerTimeout(t *testing.T) {
	r := mustRunner(t, Options{Workers: 2})
	j := mixJob("shared", 1, 0)
	j.Budget = Budget{WarmupInsts: 500, MeasureInsts: 500_000_000}

	// Owner: a context that times out almost immediately.
	ownerCtx, cancelOwner := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelOwner()
	ownerDone := make(chan Result, 1)
	go func() {
		res, _ := r.RunContext(ownerCtx, []Job{j})
		ownerDone <- res[0]
	}()
	time.Sleep(5 * time.Millisecond) // let the owner register in-flight

	// Waiter: no deadline of its own. After the owner times out it must
	// retry the (deliberately enormous) job as the new owner — proven
	// below by it still running after the owner failed — and then our
	// explicit cancel ends it with its own error, not an inherited one.
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan Result, 1)
	go func() {
		res, _ := r.RunContext(waiterCtx, []Job{j})
		waiterDone <- res[0]
	}()

	owner := <-ownerDone
	if !errors.Is(owner.Err, context.DeadlineExceeded) {
		t.Fatalf("owner error %v, want deadline exceeded", owner.Err)
	}
	// The waiter must still be running (it retried as the new owner)
	// rather than having inherited the owner's timeout.
	select {
	case res := <-waiterDone:
		t.Fatalf("waiter finished with inherited error: %v", res.Err)
	case <-time.After(100 * time.Millisecond):
	}
	cancelWaiter()
	res := <-waiterDone
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("waiter error %v, want its own cancellation", res.Err)
	}
}
