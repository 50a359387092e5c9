package experiments

import (
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

// csvRows writes a result's CSV and parses it back.
func csvRows(t *testing.T, r *Result) [][]string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	return rows
}

func TestFig1CSV(t *testing.T) {
	r := mustRun(t, Find("1a"))
	rows := csvRows(t, r)
	want := 1 + 10*len(PaperLatencies)
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	if rows[0][0] != "benchmark" || rows[0][1] != "l2" {
		t.Fatalf("header = %v", rows[0])
	}
	// Every row has the full column count (csv.Reader enforces
	// rectangularity, but check the benchmark column is populated).
	for _, row := range rows[1:] {
		if row[0] == "" {
			t.Fatal("empty benchmark cell")
		}
	}
}

func TestFig3CSV(t *testing.T) {
	rows := csvRows(t, mustRun(t, Find("3")))
	if len(rows) != 1+len(Fig3Threads)*2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Fractions per unit must sum to ~1 (the accounting identity).
	for _, row := range rows[1:] {
		sum := 0.0
		for _, cell := range row[3:] {
			v := parseF(t, cell)
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("slot fractions sum to %v in %v", sum, row)
		}
	}
}

func TestFig4And5CSV(t *testing.T) {
	r4, err := Fig4(testBudget())
	if err != nil {
		t.Fatal(err)
	}
	rows := csvRows(t, r4)
	if len(rows) != 1+len(Fig4Configs)*len(PaperLatencies) {
		t.Fatalf("fig4: %d rows", len(rows))
	}

	rows = csvRows(t, mustRun(t, Find("5")))
	want := 1 + 2*len(Fig5ThreadsShort) + 2*len(Fig5ThreadsLong)
	if len(rows) != want {
		t.Fatalf("fig5: %d rows, want %d", len(rows), want)
	}
	// L2=16 rows have empty bus cells; L2=64 rows are populated.
	for _, row := range rows[1:] {
		if row[0] == "16" && row[4] != "" {
			t.Fatal("L2=16 row has bus utilization")
		}
		if row[0] == "64" && row[4] == "" {
			t.Fatal("L2=64 row missing bus utilization")
		}
	}
}

func TestAblationCSV(t *testing.T) {
	r := mustRun(t, Find("a2"))
	rows := csvRows(t, r)
	if len(rows) != 1+len(r.Rows) || len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

func TestInterferenceCSV(t *testing.T) {
	sizes, threads := []int{64 << 10, 1 << 20}, []int{1, 2}
	rows := csvRows(t, mustRun(t, InterferenceGrid(sizes, threads)))
	if len(rows) != 1+len(sizes)*len(threads) {
		t.Fatalf("%d rows, want header + %d points", len(rows), len(sizes)*len(threads))
	}
	for _, row := range rows[1:] {
		if miss := parseF(t, row[3]); miss < 0 || miss > 1 {
			t.Fatalf("miss ratio %s out of range", row[3])
		}
	}
}
