package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// skipper is a live source that both fills and skips.
type skipper interface {
	trace.Filler
	trace.Skipper
}

// checkSkipMatchesFill requires that skipping n records reports exactly
// the loads, stores and branches Fill would have produced, indexed from
// base, and leaves the source exactly where Fill leaves its twin: the
// records after the split match and so does the whole generator state.
func checkSkipMatchesFill(t *testing.T, name string, skip, fill skipper, prefix, n int) {
	t.Helper()
	pre := make([]isa.Inst, prefix)
	skip.Fill(pre)
	fill.Fill(pre)
	const base = 7
	var got trace.Refs
	if c := skip.Skip(&got, base, n); c != n {
		t.Fatalf("%s: Skip consumed %d of %d", name, c, n)
	}
	recs := make([]isa.Inst, n)
	fill.Fill(recs)
	var want trace.Refs
	want.Add(recs, base)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: prefix %d, Skip(%d) refs differ from the filled records'", name, prefix, n)
	}
	if !reflect.DeepEqual(skip, fill) {
		t.Fatalf("%s: prefix %d, Skip(%d) left the source elsewhere than Fill", name, prefix, n)
	}
	after, twin := make([]isa.Inst, 100), make([]isa.Inst, 100)
	skip.Fill(after)
	fill.Fill(twin)
	if !reflect.DeepEqual(after, twin) {
		t.Fatalf("%s: prefix %d, records after Skip(%d) differ", name, prefix, n)
	}
}

// TestSkipMatchesFill checks Skip against Fill for every builtin and for
// the mix at random split points, including splits exactly at and just
// around a mix segment boundary.
func TestSkipMatchesFill(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, b := range builtins() {
		for range 6 {
			opts := ReaderOpts{AddrOffset: ThreadAddrOffset(rng.Intn(4)), Seed: rng.Uint64()}
			checkSkipMatchesFill(t, b.Name, b.newGenerator(opts), b.newGenerator(opts), rng.Intn(3000), 1+rng.Intn(2000))
		}
	}
	opts := MixOpts{SegmentLen: DefaultSegmentLen, Seed: 3}
	cases := [][2]int{
		{DefaultSegmentLen, 500},       // the skip starts exactly at a boundary
		{DefaultSegmentLen - 100, 100}, // and ends exactly at one
		{DefaultSegmentLen - 100, 300}, // and straddles one
	}
	for range 6 {
		cases = append(cases, [2]int{rng.Intn(2 * DefaultSegmentLen), 1 + rng.Intn(3000)})
	}
	for _, c := range cases {
		thread := rng.Intn(4)
		checkSkipMatchesFill(t, "mix", newMixReader(thread, opts), newMixReader(thread, opts), c[0], c[1])
	}
}
