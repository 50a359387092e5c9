package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. The names, units and directions
// here are what BENCHMARK.json declares (a test keeps the two in step);
// the regression bounds live only in BENCHMARK.json, where -compare reads
// them.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
}

// endToEnd are the metrics a user of the simulator sees, reported by
// every untraced run on every workload. What "one operation" is depends
// on the workload (see the package comment).
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"op_ms_p50", "ms", false},
	{"sim_minsts_per_s", "Minst/s", true},
	{"peak_rss_mib", "MiB", false},
}

// layers is the CPU-profile attribution taxonomy (see profile.go).
var layers = []string{
	"core.fetch", "core.dispatch", "core.issue", "core.graduate",
	"core.calendar", "core.warp", "core.cmp", "core.other",
	"mem", "workload", "sim", "runner", "serveapi", "fabric",
	"net", "json", "gc", "other",
}

// perLayer are the traced run's metrics. A layer a workload never calls
// reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.ns_per_inst", "ns/inst", false},
		{"workload.interned_frac", "ratio", true},
		{"sim.ns_per_inst", "ns/inst", false},
		{"sim.ns_per_sim_cycle", "ns/cycle", false},
		{"sim.warmup_frac", "ratio", false},
		{"daesim.validate_hash_us", "us", false},
		{"runner.worker_busy_frac", "ratio", true},
		{"runner.cache_hit_frac", "ratio", true},
		{"fabric.self_us_per_req", "us", false},
		{"fabric.forwarded_per_req", "count/req", false},
		{"serveapi.busy_ms_per_req", "ms", false},
		{"loadgen.lag_ms_tail", "ms", false},
		{"loadgen.conn_wait_ms_tail", "ms", false},
		{"mem.level_accesses_per_kinst", "count/kinst", false},
		{"mem.l1_misses_per_kinst", "count/kinst", false},
		{"trace.overhead_frac", "ratio", false},
		{"cpu.attributed_ns_per_inst", "ns/inst", false},
		{"host.cpu_ns_per_inst", "ns/inst", false},
		{"cpu.profile_coverage", "ratio", true},
		{"cpu.samples", "count", true},
	}
	for _, l := range layers {
		defs = append(defs,
			metricDef{"cpu." + l + "_frac", "ratio", false},
			metricDef{"cpu." + l + "_ns_per_inst", "ns/inst", false})
	}
	return defs
}()

// metricValue is one metric as printed on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sampled is a metric value with the samples it summarizes, as kept in
// -out records and printed in the human-readable table.
type sampled struct {
	metricValue
	// Samples are the raw observations the value summarizes (per
	// operation for latencies, per set-up for setup_s); empty for values
	// that are a single measurement.
	Samples []float64 `json:"samples,omitempty"`
}

// median returns the middle of xs (the mean of the two middle values for
// even lengths); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive"), so spreads printed here match the ones computed over
// result lines by that function.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it — the sample with exactly ten larger ones — and which
// percentile that is. Below 20 samples that percentile would not even be
// above the median, and the maximum stands in (percentile 100).
func tail(xs []float64) (value, percentile float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0, 0
	case n < 20:
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise measure bounds are checked against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// ratio divides, reporting 0 for an empty denominator (a layer the
// workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// describe renders one metric for the human-readable table.
func describe(name string, m sampled) string {
	if len(m.Samples) < 2 {
		return fmt.Sprintf("  %-30s %14.4f %-9s n=%d", name, m.Value, m.Unit, max(len(m.Samples), 1))
	}
	q1, q2, q3 := quartiles(m.Samples)
	return fmt.Sprintf("  %-30s %14.4f %-9s n=%-5d median=%.4f q1=%.4f q3=%.4f",
		name, m.Value, m.Unit, len(m.Samples), q2, q1, q3)
}
