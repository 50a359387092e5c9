package daesim

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func testEngine(t *testing.T, opts EngineOpts) *Engine {
	t.Helper()
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func shortOpts() RunOpts {
	return RunOpts{WarmupInsts: 2_000, MeasureInsts: 8_000}
}

// TestEngineMatchesDirectRunByteForByte is the bit-identity acceptance
// gate: for each of the four figure configurations a shared 2-worker
// Engine's Report must serialize to exactly the bytes a fresh
// single-worker Engine (runOnce) produces.
func TestEngineMatchesDirectRunByteForByte(t *testing.T) {
	eng := testEngine(t, EngineOpts{Workers: 2})
	ctx := context.Background()
	configs := []struct {
		name    string
		machine Machine
	}{
		{"1T-L2_16", Figure2(1)},
		{"1T-L2_256", Figure2(1).WithL2Latency(256)},
		{"4T-L2_16", Figure2(4)},
		{"4T-L2_256", Figure2(4).WithL2Latency(256)},
	}
	for _, cfg := range configs {
		direct, err := runOnce(MixRequest(cfg.machine, shortOpts()))
		if err != nil {
			t.Fatalf("%s: direct: %v", cfg.name, err)
		}
		viaEngine, err := eng.Run(ctx, MixRequest(cfg.machine, shortOpts()))
		if err != nil {
			t.Fatalf("%s: engine: %v", cfg.name, err)
		}
		want, _ := json.Marshal(direct)
		got, _ := json.Marshal(viaEngine)
		if string(want) != string(got) {
			t.Errorf("%s: engine report differs from direct run\nwant %s\ngot  %s", cfg.name, want, got)
		}
	}
}

func TestEngineCancellationIsPrompt(t *testing.T) {
	eng := testEngine(t, EngineOpts{Workers: 1})
	// A measurement window ~3 orders of magnitude beyond the test budget:
	// only cancellation can end this run quickly.
	req := MixRequest(Figure2(1), RunOpts{WarmupInsts: 1_000, MeasureInsts: 200_000_000})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := eng.Run(ctx, req)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v, want < 1s", elapsed)
	}
	// Aborted runs must not be cached.
	if _, ok := eng.Lookup(req.Hash()); ok {
		t.Error("aborted run left a cache entry")
	}
	// The engine stays healthy: the same request runs fine afterwards
	// with a workable budget.
	req.Budget.MeasureInsts = 8_000
	if _, err := eng.Run(context.Background(), req); err != nil {
		t.Fatalf("engine broken after cancellation: %v", err)
	}
}

func TestEngineDeduplicatesConcurrentIdenticalRequests(t *testing.T) {
	eng := testEngine(t, EngineOpts{Workers: 4})
	req := MixRequest(Figure2(1), shortOpts())
	const callers = 8

	var wg sync.WaitGroup
	reports := make([]Report, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = eng.Run(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(reports[i], reports[0]) {
			t.Fatalf("caller %d received a different report", i)
		}
	}
	if sim := eng.Stats().Simulated; sim != 1 {
		t.Fatalf("%d simulations for %d concurrent identical requests, want 1", sim, callers)
	}
}

func TestEngineRunBatchAlignmentAndAggregation(t *testing.T) {
	eng := testEngine(t, EngineOpts{Workers: 2})
	reqs := []Request{
		MixRequest(Figure2(1), shortOpts()),
		BenchmarkRequest("quake3", Figure2(1), shortOpts()), // invalid: unknown name
		BenchmarkRequest("swim", Figure2(1), shortOpts()),
		MixRequest(Figure2(0), shortOpts()), // invalid: zero threads
	}
	results, err := eng.RunBatch(context.Background(), reqs)
	if err == nil {
		t.Fatal("batch with invalid requests returned nil error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BatchError", err)
	}
	if len(be.Errors) != 2 || be.Total != 4 {
		t.Fatalf("BatchError has %d/%d failures, want 2/4", len(be.Errors), be.Total)
	}
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Error("valid requests failed alongside invalid ones")
	}
	if results[0].Report.Graduated == 0 || results[2].Report.Graduated == 0 {
		t.Error("valid requests missing reports")
	}
	if !errors.Is(results[1].Err, ErrUnknownBenchmark) {
		t.Errorf("request 1 error %v, want ErrUnknownBenchmark", results[1].Err)
	}
	if !errors.Is(results[3].Err, ErrInvalidConfig) {
		t.Errorf("request 3 error %v, want ErrInvalidConfig", results[3].Err)
	}
	if results[1].Hash != "" {
		t.Error("invalid request was assigned a content hash")
	}
}

func TestEngineDiskCacheInteropAndLookup(t *testing.T) {
	dir := t.TempDir()
	req := MixRequest(Figure2(1), shortOpts())

	first := testEngine(t, EngineOpts{Workers: 1, CacheDir: dir})
	rep, err := first.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// The disk entry is named by the Request's public content hash — the
	// contract that makes results addressable across processes and tools
	// (dae-sweep, dae-sim -cache, dae-serve share the directory format).
	if _, err := os.Stat(filepath.Join(dir, req.Hash()+".json")); err != nil {
		t.Fatalf("no cache entry named by Request.Hash: %v", err)
	}

	second := testEngine(t, EngineOpts{Workers: 1, CacheDir: dir})
	got, ok := second.Lookup(req.Hash())
	if !ok {
		t.Fatal("fresh engine cannot look up the on-disk result")
	}
	if a, b := mustJSON(t, rep), mustJSON(t, got); a != b {
		t.Errorf("disk round-trip altered the report\nwant %s\ngot  %s", a, b)
	}
	if sim := second.Stats().Simulated; sim != 0 {
		t.Errorf("lookup simulated %d runs", sim)
	}
}

func TestEngineWatchStreamsProgress(t *testing.T) {
	eng := testEngine(t, EngineOpts{Workers: 1})
	events, stop := eng.Watch(256)
	defer stop()

	req := MixRequest(Figure2(1), shortOpts())
	if _, err := eng.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	var snapshots, midRun, done int
	var sawMeasure bool
	var lastStats Stats
deadline:
	for {
		select {
		case p := <-events:
			switch p.Event {
			case ProgressSnapshot:
				snapshots++
				if p.Graduated < p.TargetInsts {
					midRun++
				}
				if p.Phase == "measure" {
					sawMeasure = true
				}
				if p.Hash != req.Hash() {
					t.Errorf("snapshot hash %q, want %q", p.Hash, req.Hash())
				}
			case ProgressDone:
				done++
				lastStats = p.Stats
				break deadline
			}
		case <-time.After(2 * time.Second):
			t.Fatal("no ProgressDone event")
		}
	}
	if snapshots == 0 || midRun == 0 {
		t.Errorf("%d snapshots streamed, %d of them mid-window; want both > 0", snapshots, midRun)
	}
	if !sawMeasure {
		t.Error("no measurement-phase snapshot streamed")
	}
	if done != 1 {
		t.Errorf("%d done events, want 1", done)
	}
	if lastStats.Simulated != 1 {
		t.Errorf("done event carries stats %+v, want Simulated=1", lastStats)
	}
	// A cache hit produces a done event but no snapshots.
	if _, err := eng.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-events:
		if p.Event != ProgressDone || !p.Cached {
			t.Errorf("cache hit produced %+v, want a cached done event", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event for the cache hit")
	}
}

// TestEngineWatchHashFiltersAndSelfCloses covers the Watch-over-HTTP
// plumbing: a WatchHash subscription sees only its own run's events and
// the channel closes itself after that run's done event, while events
// for other hashes never leak in.
func TestEngineWatchHashFiltersAndSelfCloses(t *testing.T) {
	eng := testEngine(t, EngineOpts{Workers: 2})
	watched := MixRequest(Figure2(1), shortOpts())
	other := MixRequest(Figure2(2), shortOpts())

	events, stop := eng.WatchHash(watched.Hash(), 256)
	defer stop()

	// Run the other request first so its events are in the stream before
	// the watched run's; none of them may come through.
	if _, err := eng.Run(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), watched); err != nil {
		t.Fatal(err)
	}

	var snapshots, done int
	deadline := time.After(5 * time.Second)
	for {
		select {
		case p, ok := <-events:
			if !ok {
				if done != 1 {
					t.Fatalf("channel closed after %d done events, want 1", done)
				}
				if snapshots == 0 {
					t.Error("no snapshots relayed for the watched run")
				}
				// stop after self-close must be a harmless no-op.
				stop()
				return
			}
			if p.Hash != watched.Hash() {
				t.Errorf("event for foreign hash %q leaked through the filter", p.Hash)
			}
			switch p.Event {
			case ProgressSnapshot:
				snapshots++
			case ProgressDone:
				done++
				if p.Error != "" || p.Err != nil {
					t.Errorf("successful run's done event carries error %q", p.Error)
				}
			}
		case <-deadline:
			t.Fatal("WatchHash channel never closed after the watched run finished")
		}
	}
}

// TestEngineWatchHashCacheHit: watching an already-cached hash yields a
// single cached done event as soon as any Run for it completes.
func TestEngineWatchHashCacheHit(t *testing.T) {
	eng := testEngine(t, EngineOpts{Workers: 1})
	req := MixRequest(Figure2(1), shortOpts())
	if _, err := eng.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	events, stop := eng.WatchHash(req.Hash(), 16)
	defer stop()
	if _, err := eng.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-events:
		if p.Event != ProgressDone || !p.Cached {
			t.Errorf("got %+v, want a cached done event", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event for the cache hit")
	}
	if _, ok := <-events; ok {
		t.Error("channel not closed after the done event")
	}
}

// TestEngineWatchHashClosesOnDoneWhenFull: publish itself ends a hash
// subscription at its run's done event, synchronously and even when a
// lagging consumer's full buffer drops that event, while a Watch
// subscriber keeps its channel.
func TestEngineWatchHashClosesOnDoneWhenFull(t *testing.T) {
	eng := testEngine(t, EngineOpts{Workers: 1})
	events, stop := eng.WatchHash("h", 16)
	defer stop()
	all, stopAll := eng.Watch(64)
	defer stopAll()
	for i := 0; i < 20; i++ {
		eng.publish(Progress{Event: ProgressSnapshot, Hash: "h", Graduated: int64(i)})
	}
	eng.publish(Progress{Event: ProgressDone, Hash: "h"})
	n := 0
	for p := range events { // closed by the done event's publish
		if p.Event != ProgressSnapshot || p.Graduated != int64(n) {
			t.Fatalf("event %d is %+v, want snapshot %d", n, p, n)
		}
		n++
	}
	if n != 16 {
		t.Errorf("lagging subscriber received %d events, want its 16-event buffer", n)
	}
	if got := len(all); got != 21 {
		t.Errorf("Watch subscriber holds %d events, want all 21", got)
	}
}

func TestEngineCustomWorkloadsAreCacheable(t *testing.T) {
	eng := testEngine(t, EngineOpts{Workers: 1})
	b, err := BenchmarkByName("mgrid")
	if err != nil {
		t.Fatal(err)
	}
	b.Name = "mgrid-variant"
	b.Kernels[0].FPChains = 2
	req := CustomRequest(b, Figure2(1), shortOpts())

	direct, err := runOnce(CustomRequest(b, Figure2(1), shortOpts()))
	if err != nil {
		t.Fatal(err)
	}
	viaEngine, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, direct), mustJSON(t, viaEngine); a != b {
		t.Error("custom workload: engine report differs from direct run")
	}
	// Same custom spec → cache hit; different spec → different hash.
	if _, err := eng.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Simulated != 1 || s.CacheHits != 1 {
		t.Errorf("custom workload not deduplicated: %+v", s)
	}
	other := req
	vb := *req.Workload.Custom
	vb.Kernels = append([]Kernel(nil), vb.Kernels...) // don't alias req's model
	vb.Kernels[0].FPChains = 3
	other.Workload.Custom = &vb
	if other.Hash() == req.Hash() {
		t.Error("custom model change did not change the request hash")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
