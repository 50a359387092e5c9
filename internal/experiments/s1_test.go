package experiments

import (
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
)

// testSampling shrinks the sampling period so the quick test budgets
// still yield several measured units per configuration (the committed
// figure uses the defaults over budgets two orders of magnitude larger).
// Like the default period, it is incommensurate with the mix's 40k
// rotation.
var testSampling = sim.Sampling{PeriodInsts: 9_700, UnitInsts: 500, WarmupInsts: 1_000}

// runS1 runs the study with the test sampling.
func runS1(t *testing.T, b Budget) *Result {
	t.Helper()
	f, err := S1Sampled(testSampling)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestS1Structure(t *testing.T) {
	r := runS1(t, testBudget())
	if len(r.Rows) != len(S1Configs) {
		t.Fatalf("%d points, want %d", len(r.Rows), len(S1Configs))
	}
	for _, p := range r.Rows {
		name, exact, sampled := p["config"], p["exact_ipc"].(float64), p["sampled_ipc"].(float64)
		if exact <= 0 || sampled <= 0 {
			t.Errorf("%s: non-positive IPC (exact %.3f, sampled %.3f)", name, exact, sampled)
		}
		if ci := p["ci"].(float64); ci < 0 {
			t.Errorf("%s: negative CI %.4f", name, ci)
		}
		units := p["units"].(int)
		if units < 1 {
			t.Errorf("%s: no measured units", name)
		}
		if quant() && units < 2 {
			t.Errorf("%s: %d units — the test sampling should yield several at QuickBudget", name, units)
		}
	}
	for _, want := range []string{"Study S1", "1T-L2_16", "4T-L2_256", "speedup", "in CI"} {
		if !strings.Contains(r.Table(r.Panels[0].View), want) {
			t.Errorf("table missing %q", want)
		}
	}

	// The quantitative honesty check: the sampled estimate's error against
	// the exact run must lie inside the estimate's own 95% confidence
	// interval. Deterministic — fixed workloads, fixed schedule — so this
	// either always passes or always fails for a given parameterization.
	if quant() {
		for _, p := range r.Rows {
			if !p["in_ci"].(bool) {
				t.Errorf("%s: |error| %.2f%% outside the reported 95%% CI (sampled %.3f ±%.3f, exact %.3f, %d units)",
					p["config"], p["err_pct"], p["sampled_ipc"], p["ci"], p["exact_ipc"], p["units"])
			}
		}
	}
}

func TestS1CSV(t *testing.T) {
	r := runS1(t, testBudget())
	rows := csvRows(t, r)
	if len(rows) != 1+len(r.Rows) {
		t.Fatalf("%d CSV lines, want %d", len(rows), 1+len(r.Rows))
	}
	if header := strings.Join(rows[0], ","); !strings.HasPrefix(header, "config,threads,l2,exact_ipc,sampled_ipc,ci,units,err_pct,in_ci") {
		t.Errorf("unexpected CSV header: %s", header)
	}
}

// TestS1MarksCachedRuns pins that a pair with a cache hit reports no
// speedup: after Figure 3 has run the exact L2=16 points on the same
// runner, S1's table says "cached" for 1T-L2_16 and the CSV wall-clock
// cells of both L2=16 configurations are empty, while a pair that
// simulated both runs keeps its measured speedup.
func TestS1MarksCachedRuns(t *testing.T) {
	r, err := runner.New(runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := ShortBudget()
	b.Runner = r
	if _, err := Find("3").Run(b); err != nil {
		t.Fatal(err)
	}
	s1 := runS1(t, b)
	table := s1.Table(s1.Panels[0].View)
	for _, line := range strings.Split(table, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "1T-L2_16":
			if last := fields[len(fields)-1]; last != "cached" {
				t.Errorf("1T-L2_16 speedup reads %q after fig3 ran its exact point, want cached", last)
			}
		case "1T-L2_256":
			if last := fields[len(fields)-1]; !strings.HasSuffix(last, "x") {
				t.Errorf("1T-L2_256 speedup reads %q, want a measured speedup", last)
			}
		}
	}
	rows := csvRows(t, s1)
	for _, row := range rows[1:] {
		wall := strings.Join(row[9:], ",")
		if cached := strings.HasSuffix(row[0], "L2_16"); cached != (wall == ",,") {
			t.Errorf("%s: wall-clock cells %q", row[0], wall)
		}
	}
}

func TestS1RejectsBadSampling(t *testing.T) {
	if _, err := S1Sampled(sim.Sampling{PeriodInsts: 100, UnitInsts: 90, WarmupInsts: 20}); err == nil {
		t.Error("unit+warmup exceeding the period accepted")
	}
}
