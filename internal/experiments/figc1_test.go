package experiments

import (
	"strings"
	"testing"
)

func TestC1Structure(t *testing.T) {
	b := testBudget()
	// Trimmed axes: the capacity extremes and the core-count extremes
	// carry the signal; the canonical grid runs via `dae-sweep -fig c1`.
	cores := []int{1, 2}
	contexts := []int{1, 2}
	sizes := []int{64 << 10}
	r, err := C1Grid(cores, contexts, sizes).Run(b)
	if err != nil {
		t.Fatal(err)
	}
	// at reads a column of the point with the given machine shape.
	at := func(col string, cores, contexts, l2Size int, private bool) []float64 {
		return r.Floats(col, "cores", cores, "contexts", contexts, "l2_bytes", l2Size, "private", private)
	}

	// Point count: scaling (cores × contexts) + private (multi-core
	// counts) + interference (sizes × cores).
	want := len(cores)*len(contexts) + 1 + len(sizes)*len(cores)
	if len(r.Rows) != want {
		t.Fatalf("%d points, want %d", len(r.Rows), want)
	}
	for _, p := range r.Rows {
		if p["ipc"].(float64) <= 0 {
			t.Errorf("cores=%d ctx=%d: non-positive IPC", p["cores"], p["contexts"])
		}
		if m := p["l2_miss"].(float64); m < 0 || m > 1 {
			t.Errorf("cores=%d ctx=%d: miss ratio %f out of range", p["cores"], p["contexts"], m)
		}
		// Private address spaces: the coherence machinery must stay
		// silent for this workload. A non-zero count means cross-core
		// address collisions (or a broadcast bug).
		if p["invalidations"].(int64) != 0 {
			t.Errorf("cores=%d ctx=%d private=%v: %d invalidations, want 0",
				p["cores"], p["contexts"], p["private"], p["invalidations"])
		}
	}

	if len(at("ipc", 2, 1, C1SharedL2Size, true)) != 1 {
		t.Error("lookup missed the private 2-core point")
	}
	if len(at("ipc", 1, 1, 64<<10, false)) != 1 {
		t.Error("lookup missed the interference point")
	}
	if len(at("ipc", 8, 1, C1SharedL2Size, false)) != 0 {
		t.Error("lookup invented a point outside the grid")
	}

	for _, wantStr := range []string{"Figure C1", "shared", "private", "invals", "256KB"} {
		if !strings.Contains(r.Table(r.Panels[0].View), wantStr) {
			t.Errorf("table missing %q", wantStr)
		}
	}

	if quant() {
		// More cores, more aggregate throughput: the scaling section's
		// point of existing.
		one := at("ipc", 1, 1, C1SharedL2Size, false)[0]
		two := at("ipc", 2, 1, C1SharedL2Size, false)[0]
		if two <= one {
			t.Errorf("2-core IPC %.2f not above 1-core %.2f", two, one)
		}
		// Cross-core interference: two cores on a 64KB shared L2 miss
		// more than one core does.
		oneSmall := at("l2_miss", 1, 1, 64<<10, false)[0]
		twoSmall := at("l2_miss", 2, 1, 64<<10, false)[0]
		if twoSmall <= oneSmall {
			t.Errorf("2-core 64KB miss ratio %.3f not above 1-core %.3f",
				twoSmall, oneSmall)
		}
	}
}

func TestC1CSV(t *testing.T) {
	r := &Result{Figure: Find("c1"), Rows: []Row{
		{"cores": 2, "contexts": 1, "l2_bytes": 64 << 10, "private": true,
			"ipc": 1.5, "l2_miss": 0.25, "mem_bus_util": 0.5, "invalidations": int64(0)},
	}}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{"cores,contexts,l2_bytes,private", "2,1,65536,true,1.5"} {
		if !strings.Contains(got, want) {
			t.Errorf("CSV missing %q in:\n%s", want, got)
		}
	}
}
