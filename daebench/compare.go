package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// manifest is the part of BENCHMARK.json the benchmark reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// readSnapshot reads a -out file. Files in the earlier dae-bench format
// (BENCH_<n>.json: best-of-N records per config and mode) are recognized
// and refused.
func readSnapshot(path string) (snapshot, error) {
	var probe struct {
		Records json.RawMessage `json:"records"`
		Runs    json.RawMessage `json:"runs"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return snapshot{}, err
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	if probe.Runs == nil {
		if probe.Records != nil {
			return snapshot{}, errLegacy
		}
		return snapshot{}, fmt.Errorf("%s: not a daebench -out file", path)
	}
	var s snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

var errLegacy = errors.New("legacy dae-bench snapshot")

// values collects one metric's value over a snapshot's runs of a workload.
func (s snapshot) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles prints the comparison of two -out files ("old,new").
// Regressions beyond a metric's bound make it return an error.
func compareFiles(w io.Writer, arg, manifestPath string) error {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants old.json,new.json, got %q", arg)
	}
	m, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	var snaps [2]snapshot
	legacy := false
	for i, p := range paths {
		p = strings.TrimSpace(p)
		snaps[i], err = readSnapshot(p)
		if err == errLegacy {
			fmt.Fprintf(w, "%s: legacy dae-bench snapshot (best-of-N per config and mode): not comparable with daebench runs\n", p)
			legacy = true
			continue
		}
		if err != nil {
			return err
		}
	}
	if legacy {
		return nil
	}
	old, cur := snaps[0], snaps[1]
	if old.NumCPU != cur.NumCPU || old.GOARCH != cur.GOARCH || old.GoVersion != cur.GoVersion {
		fmt.Fprintf(w, "> host changed (num_cpu %d→%d, goarch %s→%s, go %s→%s): deltas compare different machines\n\n",
			old.NumCPU, cur.NumCPU, old.GOARCH, cur.GOARCH, old.GoVersion, cur.GoVersion)
	}
	fmt.Fprintln(w, "| workload | metric | old median [q1, q3] | new median [q1, q3] | worse by | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---|")
	regressions := 0
	for _, wl := range m.Workloads {
		for _, d := range m.EndToEnd {
			o, n := old.values(wl.Name, d.Name, false), cur.values(wl.Name, d.Name, false)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v := verdict(o, n, d.Better == "higher", d.Bound)
			if v.regression {
				regressions++
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %+.1f%% | %.0f%% | %s |\n",
				wl.Name, d.Name, quart(o, d.Unit), quart(n, d.Unit), 100*v.worse, 100*d.Bound, v.text)
		}
	}
	// Per-layer metrics carry no bounds: print the deltas for reading.
	header := false
	for _, wl := range m.Workloads {
		for _, d := range m.PerLayer {
			o, n := old.values(wl.Name, d.Name, true), cur.values(wl.Name, d.Name, true)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			if !header {
				fmt.Fprintln(w, "\n| workload | per-layer metric | old median | new median |")
				fmt.Fprintln(w, "|---|---|---:|---:|")
				header = true
			}
			fmt.Fprintf(w, "| %s | %s | %.4g %s | %.4g %s |\n", wl.Name, d.Name, median(o), d.Unit, median(n), d.Unit)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressions)
	}
	return nil
}

func quart(xs []float64, unit string) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g %s [%.4g, %.4g] n=%d", q2, unit, q1, q3, len(xs))
}

type judgement struct {
	worse      float64 // how much worse the new median is, as a share of the old
	regression bool
	text       string
}

// verdict judges one (workload, metric) pair. A regression is a new
// median worse than the old by more than the bound. When the old runs'
// own quartile spread exceeds the bound the pair is unresolved — unless
// every new run reads better than every old one.
func verdict(old, cur []float64, higher bool, bound float64) judgement {
	mo, mn := median(old), median(cur)
	j := judgement{worse: ratio(mn-mo, mo)}
	if higher {
		j.worse = -j.worse
	}
	better := func(a, b float64) bool { return (higher && a > b) || (!higher && a < b) }
	allBetter := true
	for _, n := range cur {
		for _, o := range old {
			allBetter = allBetter && better(n, o)
		}
	}
	switch {
	case len(old) < 2:
		j.text = "unresolved (one old run: no spread)"
	case spread(old) > bound && !allBetter:
		j.text = fmt.Sprintf("unresolved (old spread %.1f%% > bound)", 100*spread(old))
	case j.worse > bound:
		j.text, j.regression = "REGRESSION", true
	case allBetter:
		j.text = "better in every run"
	default:
		j.text = "within bound"
	}
	return j
}
