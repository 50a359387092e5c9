package workload

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// readN pulls n instructions from a reader into a slice.
func readN(t *testing.T, r interface{ Next(*isa.Inst) bool }, n int) []isa.Inst {
	t.Helper()
	out := make([]isa.Inst, n)
	for i := range out {
		if !r.Next(&out[i]) {
			t.Fatalf("stream ended at %d/%d", i, n)
		}
	}
	return out
}

// TestInternMatchesLiveGeneration: the first reader for a key runs live
// (no point buffering a one-shot stream), every later reader is interned
// and must be bit-identical to the raw generator.
func TestInternMatchesLiveGeneration(t *testing.T) {
	b, err := ByName("su2cor")
	if err != nil {
		t.Fatal(err)
	}
	opts := ReaderOpts{AddrOffset: ThreadAddrOffset(2), Seed: 7}
	if _, ok := b.NewReader(opts).(*internReader); ok {
		t.Fatal("first reader for a key should generate live, not interned")
	}
	r := b.NewReader(opts)
	if _, ok := r.(*internReader); !ok {
		t.Fatal("second reader for a key should be interned")
	}
	const n = 3 * internChunkLen // spans several chunks, ends mid-chunk
	live := readN(t, b.newGenerator(opts), n+37)
	interned := readN(t, r, n+37)
	for i := range live {
		if live[i] != interned[i] {
			t.Fatalf("instruction %d differs: live %v, interned %v", i, live[i], interned[i])
		}
	}
}

// TestInternConcurrentReaders: concurrent readers of one stream (the
// runner's worker-pool pattern) must each see the exact sequence. Run
// with -race this also proves the publication protocol.
func TestInternConcurrentReaders(t *testing.T) {
	b, err := ByName("hydro2d")
	if err != nil {
		t.Fatal(err)
	}
	opts := ReaderOpts{AddrOffset: ThreadAddrOffset(1), Seed: 99}
	want := readN(t, b.NewReader(opts), 4*internChunkLen) // first sighting: live
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := b.NewReader(opts)
			var in isa.Inst
			for i := range want {
				if !r.Next(&in) || in != want[i] {
					t.Errorf("instruction %d diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInternBudgetFallback: when the global budget freezes a stream, a
// reader that outruns the shared prefix must continue bit-identically on
// its private generator.
func TestInternBudgetFallback(t *testing.T) {
	saved := InternBudgetBytes
	defer func() { InternBudgetBytes = saved }()

	b, err := ByName("wave5")
	if err != nil {
		t.Fatal(err)
	}
	// A seed no other test shares, so this stream is not already interned.
	opts := ReaderOpts{AddrOffset: ThreadAddrOffset(3), Seed: 0xB0D6E7}
	const n = 5 * internChunkLen
	want := readN(t, b.NewReader(opts), n) // first sighting: live

	// Allow one more chunk than currently used, then freeze.
	_, _, used := internStats()
	InternBudgetBytes = used + internChunkBytes
	r := b.NewReader(opts)
	if _, ok := r.(*internReader); !ok {
		t.Fatal("second reader for a key should be interned")
	}
	got := readN(t, r, n)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("instruction %d differs after freeze: want %v, got %v", i, want[i], got[i])
		}
	}
	if ir := r.(*internReader); ir.live == nil {
		t.Fatal("reader never fell back to live generation despite the frozen stream")
	}
}

// TestInternFillMatchesNext: Fill on an interned reader is Next in bulk,
// record for record — across chunk boundaries (odd batch sizes straddle
// them, one batch spans a whole chunk), and past a frozen prefix, where
// the reader falls back to its private generator mid-batch. A PeekNext
// before some batches leaves a pending record Fill must hand out first.
func TestInternFillMatchesNext(t *testing.T) {
	saved := InternBudgetBytes
	defer func() { InternBudgetBytes = saved }()
	batches := []int{1, 3, 64, 7, internChunkLen + 5, 61, 2, 1000}
	const n = 6*internChunkLen + 77

	b, err := ByName("turb3d")
	if err != nil {
		t.Fatal(err)
	}
	for _, frozen := range []bool{false, true} {
		// Seeds no other test shares, so each stream starts unpublished.
		opts := ReaderOpts{AddrOffset: ThreadAddrOffset(2), Seed: 0xF111}
		if frozen {
			opts.Seed++
		}
		twin := b.NewReader(opts) // first sighting: live
		if frozen {
			// Room for two chunks, then the stream freezes.
			_, _, used := internStats()
			InternBudgetBytes = used + 2*internChunkBytes
		}
		r, ok := b.NewReader(opts).(*internReader)
		if !ok {
			t.Fatal("second reader for a key should be interned")
		}
		buf := make([]isa.Inst, internChunkLen+5)
		var want isa.Inst
		for got, k := 0, 0; got < n; k++ {
			dst := buf[:batches[k%len(batches)]]
			var peeked *isa.Inst
			if k%3 == 2 {
				p, ok := r.PeekNext()
				if !ok {
					t.Fatal("PeekNext on an infinite stream failed")
				}
				peeked = new(isa.Inst)
				*peeked = *p
			}
			if w := r.Fill(dst); w != len(dst) {
				t.Fatalf("frozen=%v: Fill wrote %d of %d records", frozen, w, len(dst))
			}
			if peeked != nil && *peeked != dst[0] {
				t.Fatalf("frozen=%v: record %d: peeked %+v, Fill %+v", frozen, got, *peeked, dst[0])
			}
			for i := range dst {
				twin.Next(&want)
				if dst[i] != want {
					t.Fatalf("frozen=%v: record %d: Fill %+v, Next %+v", frozen, got+i, dst[i], want)
				}
			}
			got += len(dst)
		}
		if fell := r.live != nil; fell != frozen {
			t.Fatalf("frozen=%v: reader fell back to live generation: %v", frozen, fell)
		}
		InternBudgetBytes = saved
	}
}

// TestTraceFileBudgetFallback: ingesting a trace file that would blow
// the intern budget must fall back to uncached (live) service — correct
// streams, nothing pinned in the registry — and ingest normally once
// the budget allows it.
func TestTraceFileBudgetFallback(t *testing.T) {
	saved := InternBudgetBytes
	defer func() { InternBudgetBytes = saved }()

	const contexts, n = 1, 400
	path := exportToFile(t, "apsi", contexts, 0xF411BACC, n)
	b, err := ByName("apsi")
	if err != nil {
		t.Fatal(err)
	}
	want := readN(t, b.NewReader(ReaderOpts{AddrOffset: ThreadAddrOffset(0), Seed: 0xF411BACC}), n)

	// A 1-byte budget cannot retain any decode: live fallback.
	InternBudgetBytes = 1
	entriesBefore := traceFileStats()
	sources, err := TraceSources(path, contexts)
	if err != nil {
		t.Fatal(err)
	}
	got := readN(t, sources[0], n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs under budget fallback", i)
		}
	}
	if after := traceFileStats(); after != entriesBefore {
		t.Fatalf("budget-exceeded ingest pinned a registry entry (%d -> %d)", entriesBefore, after)
	}

	// With headroom the same file is retained and re-served bit-identically.
	InternBudgetBytes = saved
	if _, err := TraceSources(path, contexts); err != nil {
		t.Fatal(err)
	}
	if after := traceFileStats(); after != entriesBefore+1 {
		t.Fatalf("in-budget ingest not retained (%d -> %d)", entriesBefore, after)
	}
	sources, err = TraceSources(path, contexts)
	if err != nil {
		t.Fatal(err)
	}
	got = readN(t, sources[0], n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs from the retained registry entry", i)
		}
	}
}

// TestInternDisabled: a zero budget bypasses interning entirely.
func TestInternDisabled(t *testing.T) {
	saved := InternBudgetBytes
	defer func() { InternBudgetBytes = saved }()
	InternBudgetBytes = 0
	b, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.NewReader(ReaderOpts{}).(*internReader); ok {
		t.Fatal("interning not disabled by a zero budget")
	}
}

// TestInternRegistryBounded: a stream of never-repeated keys (a server
// handling a fresh seed per request) leaves the registry within its
// first-sighting bound, and a key seen twice in a row still interns.
func TestInternRegistryBounded(t *testing.T) {
	streams0, _, _ := internStats()
	newGen := func() trace.Filler { t.Fatal("first sighting built a generator"); return nil }
	for i := 0; i < 200_000; i++ {
		if internForKey(fmt.Sprintf("bounded-test|%d", i), newGen) != nil {
			t.Fatalf("key %d interned on its first sighting", i)
		}
	}
	streams, seen, _ := internStats()
	if seen > internSeenMax || streams != streams0 {
		t.Fatalf("after 200k one-shot keys: %d first sightings (bound %d), %d streams (was %d)",
			seen, internSeenMax, streams, streams0)
	}

	opts := MixOpts{Seed: 0xB0B0B0}
	if _, ok := Mix(2, opts).(*internReader); ok {
		t.Fatal("first Mix reader for a key should run live")
	}
	if _, ok := Mix(2, opts).(*internReader); !ok {
		t.Fatal("second Mix reader for a key should be interned")
	}
	if streams, _, _ := internStats(); streams != streams0+1 {
		t.Fatalf("%d streams after one repeated key, want %d", streams, streams0+1)
	}
}
