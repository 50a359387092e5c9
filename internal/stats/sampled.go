package stats

import "math"

// This file holds the statistics behind SMARTS-style systematic sampling
// (Wenisch/Wunderlich et al.): a sampled run measures many short detailed
// units spread evenly over the instruction stream and reports the mean
// per-unit IPC with a confidence interval, instead of simulating every
// instruction in detail. The aggregation here is pure arithmetic — the
// sampling schedule itself lives in the sim package.

// Sampled summarizes the per-unit samples of a sampled run in IPC terms.
// It is attached to Report as a pointer field so exact-mode report
// encodings are byte-for-byte unchanged.
type Sampled struct {
	// Mean is the IPC estimate: the inverse of the mean per-unit CPI.
	// Units hold (near-)equal instruction counts, so mean CPI is the
	// unbiased cycles-per-instruction estimator and its inverse is the
	// aggregate instructions-over-cycles of the measured units — where a
	// plain mean of per-unit IPCs would be Jensen-biased high whenever
	// unit latencies vary.
	Mean float64
	// CI is the half-width of the 95% confidence interval around Mean
	// (z = 1.96, mapped from the CPI domain by the delta method; 0 when
	// fewer than two units were measured or the samples have zero
	// variance).
	CI float64
	// Units is the number of measured units.
	Units int
	// WarpedInsts counts the instructions advanced by the functional warp
	// between units (architectural state only, no timing).
	WarpedInsts int64 `json:",omitempty"`
}

// z95 is the two-sided 95% normal quantile used for the CI half-width.
const z95 = 1.96

// Summarize computes the mean and 95% confidence half-width of a sample
// set: CI = z * s/sqrt(n) with s the Bessel-corrected sample standard
// deviation. Degenerate inputs are well-defined: an empty set is all
// zeros, a single sample has CI 0, and identical samples have CI 0.
func Summarize(samples []float64) Sampled {
	n := len(samples)
	if n == 0 {
		return Sampled{}
	}
	var sum float64
	for _, x := range samples {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		return Sampled{Mean: mean, Units: 1}
	}
	var ss float64
	for _, x := range samples {
		d := x - mean
		ss += float64(d * d) // no fused multiply-add: same sum on every GOARCH
	}
	variance := ss / float64(n-1)
	return Sampled{
		Mean:  mean,
		CI:    z95 * math.Sqrt(variance/float64(n)),
		Units: n,
	}
}

// SummarizeCPI summarizes per-unit CPI samples and maps the estimate into
// the IPC domain: Mean = 1/mean(CPI) and CI = CI(CPI)/mean(CPI)² (the
// first-order delta method for the reciprocal). A zero-mean (empty) input
// yields the zero Sampled.
func SummarizeCPI(cpis []float64) Sampled {
	s := Summarize(cpis)
	if s.Mean == 0 {
		return Sampled{Units: s.Units}
	}
	return Sampled{
		Mean:  1 / s.Mean,
		CI:    s.CI / (s.Mean * s.Mean),
		Units: s.Units,
	}
}

// Merge folds another measured unit's collector into c, summing every
// counter *including* Cycles: unlike MergeCore (which merges lockstep
// cores sharing one clock), sampled units are disjoint windows of the
// same machine's time, so their cycle counts add. Merge in unit order:
// the waste buckets are floats and summation order must be
// deterministic.
func (c *Collector) Merge(o *Collector) {
	c.Cycles += o.Cycles
	c.MergeCore(o)
}
