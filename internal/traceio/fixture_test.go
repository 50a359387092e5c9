package traceio_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/traceio"
	"repro/internal/workload"
)

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
		if _, streams, err := traceio.Decode(&buf); err != nil || len(streams[1]) != 3000 {
			t.Errorf("%s: export does not decode: %v", name, err)
		}
	}
}

// TestGeneratorTextRoundTrip: for every built-in benchmark's first
// records, isa.Inst.String prints the line ParseText reads back.
func TestGeneratorTextRoundTrip(t *testing.T) {
	const n = 4000
	for _, name := range workload.Names() {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var want []isa.Inst
		var text strings.Builder
		r := trace.Limit(b.NewReader(workload.ReaderOpts{}), n)
		for in := (isa.Inst{}); r.Next(&in); {
			want = append(want, in)
			text.WriteString(in.String() + "\n")
		}
		streams, err := traceio.ParseText(strings.NewReader(text.String()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(streams) != 1 {
			t.Fatalf("an untagged trace parsed to %d streams", len(streams))
		}
		got := streams[0]
		if len(got) != n || len(want) != n {
			t.Fatalf("%s: parsed %d of %d records", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s record %d: %q parsed to %+v", name, i, want[i].String(), got[i])
			}
		}
	}
}
