package traceio_test

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/traceio"
	"repro/internal/workload"
)

// TestLegacyFixtureMatchesGenerator pins testdata/swim-2k.trace, a
// legacy single-stream file written by the retired legacy writer: its
// records are swim's seed-0, offset-0 generator records.
func TestLegacyFixtureMatchesGenerator(t *testing.T) {
	f, err := os.Open("testdata/swim-2k.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := traceio.ParseLegacy(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	r := trace.Limit(b.NewReader(workload.ReaderOpts{}), 2000)
	var want isa.Inst
	n := 0
	for ; r.Next(&want); n++ {
		if n >= len(got) || got[n] != want {
			t.Fatalf("record %d differs from the generator", n)
		}
	}
	if n != 2000 || len(got) != n {
		t.Fatalf("fixture holds %d records, generator gave %d", len(got), n)
	}
}

// TestGeneratorExportsDecode: every built-in benchmark's export passes
// the decoder's record validation, so checking records on the way in
// rejects nothing a generator produces.
func TestGeneratorExportsDecode(t *testing.T) {
	for _, name := range workload.Names() {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := workload.ExportTrace(&buf, b, 2, 1, 3000, ""); err != nil {
			t.Fatal(err)
		}
		if _, streams, err := traceio.Decode(&buf, traceio.FormatAuto); err != nil || len(streams[1]) != 3000 {
			t.Errorf("%s: export does not decode: %v", name, err)
		}
	}
}
