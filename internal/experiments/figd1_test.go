package experiments

import (
	"strings"
	"testing"
)

func TestD1Structure(t *testing.T) {
	b := testBudget()
	// Trimmed axes: baseline vs one aggressive speculation point, with
	// and without forced LoD; the canonical grid runs via
	// `dae-sweep -fig d1`.
	threads := []int{1, 2}
	fracs := []float64{0, 0.5}
	lods := []int64{0, 200}
	r, err := D1Grid(threads, fracs, lods).Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(threads) * len(fracs) * len(lods); len(r.Rows) != want {
		t.Fatalf("%d points, want %d", len(r.Rows), want)
	}
	for _, p := range r.Rows {
		threads, frac, lod := p["threads"].(int), p["spec_frac"].(float64), p["lod_every"].(int64)
		if p["ipc"].(float64) <= 0 {
			t.Errorf("t=%d spec=%.2f lod=%d: non-positive IPC", threads, frac, lod)
		}
		// The counters must fire exactly when their knob is on.
		if specLoads := p["spec_loads"].(int64); (frac > 0) != (specLoads > 0) {
			t.Errorf("t=%d spec=%.2f: %d speculative loads", threads, frac, specLoads)
		}
		if frac > 0 && p["squashes"].(int64) == 0 {
			t.Errorf("t=%d spec=%.2f: speculation without squashes at misspec=%.2f",
				threads, frac, D1MisspecProb)
		}
		if stalls := p["lod_stalls"].(int64); (lod > 0) != (stalls > 0) {
			t.Errorf("t=%d lod=%d: %d LoD stalls", threads, lod, stalls)
		}
		if f := p["lod_stall_frac"].(float64); f < 0 || f > 1 {
			t.Errorf("t=%d lod=%d: LoD stall fraction %f out of range", threads, lod, f)
		}
	}

	// ipc reads the IPC of the configuration's points.
	ipc := func(threads int, frac float64, lod int64) []float64 {
		return r.Floats("ipc", "threads", threads, "spec_frac", frac, "lod_every", lod)
	}
	if len(ipc(2, 0.5, 200)) != 1 {
		t.Error("lookup missed the aggressive 2-thread point")
	}
	if len(ipc(4, 0.5, 200)) != 0 {
		t.Error("lookup invented a point outside the grid")
	}

	for _, wantStr := range []string{"Figure D1", "spec-frac", "lod-every", "never"} {
		if !strings.Contains(r.Table(r.Panels[0].View), wantStr) {
			t.Errorf("table missing %q", wantStr)
		}
	}

	if quant() {
		// Forced LoD must cost throughput at one thread: every event
		// freezes the only context's fetch until its EPQ drains.
		base := ipc(1, 0, 0)[0]
		lod := ipc(1, 0, 200)[0]
		if lod >= base {
			t.Errorf("1-thread LoD IPC %.2f not below baseline %.2f", lod, base)
		}
		// LoD erosion must not compound with threads: a stalled context's
		// fetch slots are usable by the others, so the relative loss at 2
		// threads stays in the 1-thread ballpark or below (the canonical
		// 4-thread grid is where the flattening shows; at 2 threads the
		// machine is not yet issue-limited, so losses are about equal).
		base2 := ipc(2, 0, 0)[0]
		lod2 := ipc(2, 0, 200)[0]
		loss1 := (base - lod) / base
		loss2 := (base2 - lod2) / base2
		if loss2 > loss1*1.25 {
			t.Errorf("LoD loss compounded with threads: 1t %.3f vs 2t %.3f", loss1, loss2)
		}
	}
}

func TestD1CSV(t *testing.T) {
	r := &Result{Figure: Find("d1"), Rows: []Row{
		{"threads": 2, "spec_frac": 0.3, "lod_every": int64(500), "ipc": 3.5,
			"spec_loads": int64(1200), "squashes": int64(60), "lod_stalls": int64(900),
			"spec_per_ki": 12.0, "squash_per_ki": 0.6, "lod_stall_frac": 0.05},
	}}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{"threads,spec_frac,lod_every,ipc", "2,0.3,500,3.5,1200,60,900"} {
		if !strings.Contains(got, want) {
			t.Errorf("CSV missing %q in:\n%s", want, got)
		}
	}
}
