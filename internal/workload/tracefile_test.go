package workload

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// exportToFile writes a benchmark capture to a temp container file.
func exportToFile(t *testing.T, name string, contexts int, seed uint64, perStream int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".dct")
	if err := os.WriteFile(path, exportBytes(t, name, contexts, seed, perStream), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// exportBytes returns a benchmark capture as a container.
func exportBytes(t *testing.T, name string, contexts int, seed uint64, perStream int64) []byte {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	counts, err := ExportTrace(&buf, b, contexts, seed, perStream, "unit test")
	if err != nil {
		t.Fatal(err)
	}
	for s, c := range counts {
		if c != perStream {
			t.Fatalf("stream %d captured %d records, want %d", s, c, perStream)
		}
	}
	return buf.Bytes()
}

// TestTraceSourcesMatchGenerator: replaying an exported container feeds
// every context the exact records the generator construction would —
// the invariant behind the end-to-end byte-identity guarantee.
func TestTraceSourcesMatchGenerator(t *testing.T) {
	const contexts, n = 2, 3000
	path := exportToFile(t, "swim", contexts, 5, n)
	sources, err := TraceSources(path, contexts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	for ctx := 0; ctx < contexts; ctx++ {
		want := readN(t, b.NewReader(ReaderOpts{AddrOffset: ThreadAddrOffset(ctx), Seed: 5 + uint64(ctx)}), n)
		got := readN(t, sources[ctx], n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ctx %d record %d: got %+v want %+v", ctx, i, got[i], want[i])
			}
		}
		var extra isa.Inst
		if sources[ctx].Next(&extra) {
			t.Fatalf("ctx %d stream longer than the %d exported records", ctx, n)
		}
	}
}

// TestTraceSourcesReplication: fewer streams than contexts replicates
// streams modulo S, relocated by the thread address-offset delta so
// contexts keep disjoint address spaces.
func TestTraceSourcesReplication(t *testing.T) {
	const n = 500
	path := exportToFile(t, "mgrid", 1, 9, n)
	sources, err := TraceSources(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := readN(t, sources[0], n)
	repl := readN(t, sources[2], n)
	delta := ThreadAddrOffset(2) - ThreadAddrOffset(0)
	for i := range base {
		want := base[i]
		if want.IsMem() {
			want.Addr += delta
		}
		if repl[i] != want {
			t.Fatalf("record %d: got %+v want %+v", i, repl[i], want)
		}
	}
}

// TestTraceSourcesSeesRewrittenFile: a container rewritten at the same
// path replays its new records, not a copy of the old ones decoded by an
// earlier run.
func TestTraceSourcesSeesRewrittenFile(t *testing.T) {
	path := exportToFile(t, "fpppp", 1, 1, 2000)
	if _, err := TraceSources(path, 1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, exportBytes(t, "fpppp", 1, 2, 3000), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := ByName("fpppp")
	if err != nil {
		t.Fatal(err)
	}
	want := readN(t, b.NewReader(ReaderOpts{AddrOffset: ThreadAddrOffset(0), Seed: 2}), 3000)
	sources, err := TraceSources(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := readN(t, sources[0], len(want)); !reflect.DeepEqual(got, want) {
		t.Fatal("replayed the old file")
	}
	var extra isa.Inst
	if sources[0].Next(&extra) {
		t.Fatal("replay longer than the rewritten file")
	}
}

// TestTraceReaderFillMatchesNext: Fill on a trace replay is Next in bulk,
// for a stream replayed in place and for copies relocated into other
// contexts' address spaces, up to and past the end of the stream; and
// relocating a batch leaves the decode the contexts share untouched.
func TestTraceReaderFillMatchesNext(t *testing.T) {
	const contexts, n = 3, 1000
	path := exportToFile(t, "su2cor", 1, 6, n)
	filled, err := TraceSources(path, contexts)
	if err != nil {
		t.Fatal(err)
	}
	twins, err := TraceSources(path, contexts)
	if err != nil {
		t.Fatal(err)
	}
	batches := []int{1, 3, 64, 7, 200, 61}
	buf := make([]isa.Inst, 200)
	for ctx := contexts - 1; ctx >= 0; ctx-- {
		f := filled[ctx].(trace.Filler)
		got := 0
		for b := 0; ; b++ {
			dst := buf[:batches[b%len(batches)]]
			k := f.Fill(dst)
			for i := range dst[:k] {
				var want isa.Inst
				if !twins[ctx].Next(&want) || dst[i] != want {
					t.Fatalf("ctx %d record %d: Fill %+v, Next %+v", ctx, got+i, dst[i], want)
				}
			}
			got += k
			if k < len(dst) {
				break
			}
		}
		var extra isa.Inst
		if got != n || f.Fill(buf[:1]) != 0 || twins[ctx].Next(&extra) {
			t.Fatalf("ctx %d: Fill replayed %d of %d records, or the stream did not end", ctx, got, n)
		}
	}
}

// TestTraceSourcesErrors: bad paths, non-container files and context
// counts are rejected; a non-container names the converter.
func TestTraceSourcesErrors(t *testing.T) {
	if _, err := TraceSources("/nonexistent/trace.dct", 1); err == nil {
		t.Error("missing file accepted")
	}
	text := filepath.Join(t.TempDir(), "ext.txt")
	if err := os.WriteFile(text, []byte("int 0x10 r1 r2 -\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := TraceSources(text, 1)
	if !errors.Is(err, traceio.ErrBadMagic) || !strings.Contains(err.Error(), "dae-trace import") {
		t.Errorf("text trace replayed as a container: %v", err)
	}
	if _, err := TraceSources("x", 0); err == nil {
		t.Error("zero contexts accepted")
	}
}

// TestCatalog: every built-in appears with provenance and a positive
// footprint, in the paper's order.
func TestCatalog(t *testing.T) {
	entries := Catalog()
	names := Names()
	if len(entries) != len(names) {
		t.Fatalf("catalog has %d entries, want %d", len(entries), len(names))
	}
	for i, e := range entries {
		if e.Name != names[i] {
			t.Errorf("entry %d is %q, want %q", i, e.Name, names[i])
		}
		if e.Provenance == "" || e.FootprintBytes <= 0 ||
			e.Streams <= 0 || e.Kernels <= 0 || e.InstsPerIteration <= 0 {
			t.Errorf("entry %q incomplete: %+v", e.Name, e)
		}
	}
	if _, err := CatalogByName("swim"); err != nil {
		t.Error(err)
	}
	if _, err := CatalogByName("doom"); err == nil {
		t.Error("unknown catalog name accepted")
	}
}
