package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAllFiguresMatchGoldens pins every table and CSV of `-fig all` at
// a small budget byte for byte. Only study S1's wall-clock cells are
// masked (the table's speedup column; the CSV's exact_ms, sampled_ms and
// speedup columns): they measure this host, not the simulator.
//
// After an intended output change, regenerate the goldens from the
// repository root with
//
//	go run ./cmd/dae-sweep -fig all -warmup 2000 -measure 8000 \
//	    -csv cmd/dae-sweep/testdata > cmd/dae-sweep/testdata/all.txt
func TestAllFiguresMatchGoldens(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	args := []string{"-fig", "all", "-warmup", "2000", "-measure", "8000", "-csv", dir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := maskS1Table(stdout.String()); got != maskS1Table(string(want)) {
		t.Errorf("stdout differs from testdata/all.txt:\n%s", got)
	}

	goldens, err := filepath.Glob(filepath.Join("testdata", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	written, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	names := func(paths []string) []string {
		var out []string
		for _, p := range paths {
			out = append(out, filepath.Base(p))
		}
		return out
	}
	if g, w := names(goldens), names(written); len(g) != 15 || !slices.Equal(g, w) {
		t.Fatalf("CSV files written %v, goldens %v (want 15)", w, g)
	}
	for _, golden := range goldens {
		name := filepath.Base(golden)
		wantCSV, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		gotCSV, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := maskWallClock(t, gotCSV), maskWallClock(t, wantCSV); g != w {
			t.Errorf("%s differs from its golden:\n%s", name, g)
		}
	}
}

// maskS1Table drops the last column (speedup) of the S1 table: every
// line from its title up to the blank line that ends it.
func maskS1Table(out string) string {
	lines := strings.Split(out, "\n")
	in := false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "Study S1:"):
			in = true
		case l == "":
			in = false
		case in:
			lines[i] = strings.TrimRight(l[:strings.LastIndexByte(l, ' ')+1], " ")
		}
	}
	return strings.Join(lines, "\n")
}

// maskWallClock blanks the wall-clock columns of a CSV (only s1.csv has
// them) and re-encodes it.
func maskWallClock(t *testing.T, data []byte) string {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range rows[0] {
		if name == "exact_ms" || name == "sampled_ms" || name == "speedup" {
			for _, row := range rows[1:] {
				row[i] = ""
			}
		}
	}
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
