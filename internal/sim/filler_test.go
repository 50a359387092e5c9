package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestFillerSourcesMatchPlainReaders: a core fed live generators through
// their bulk trace.Filler path (a 64-record lookahead batch per context)
// must produce exactly the report it produces when the same streams are
// hidden behind trace.Func, which leaves only Next and a one-record
// lookahead. Covers exact, stepped, sampled and a 2-core CMP run, over
// the mix and over a single benchmark with LoD branches.
func TestFillerSourcesMatchPlainReaders(t *testing.T) {
	saved := workload.InternBudgetBytes
	defer func() { workload.InternBudgetBytes = saved }()
	workload.InternBudgetBytes = 0 // every reader is a live generator

	fpppp := func(n int) []trace.Reader { return benchSources(t, "fpppp", n, 5) }
	mix := func(n int) []trace.Reader { return workload.MixSources(n, workload.MixOpts{Seed: 5, SegmentLen: 3000}) }
	sampling := Sampling{PeriodInsts: 20_000, UnitInsts: 1_000, WarmupInsts: 2_000}
	cases := []struct {
		name    string
		opts    Options
		sources func(n int) []trace.Reader
	}{
		{"exact/mix", Options{Machine: config.Figure2(4)}, mix},
		{"exact/fpppp", Options{Machine: config.Figure2(2).WithL2Latency(64)}, fpppp},
		{"stepped/mix", Options{Machine: config.Figure2(2), Stepped: true}, mix},
		{"sampled/mix", Options{Machine: config.Figure2(2), Mode: ModeSampled, Sampling: sampling}, mix},
		{"sampled/fpppp", Options{Machine: config.Figure2(1), Mode: ModeSampled, Sampling: sampling}, fpppp},
		{"cmp2x2/mix", Options{
			Machine:               config.Figure2(2).WithCores(2).WithHierarchy(64, config.SharedL2(256<<10, 8)),
			DisjointAddressSpaces: true,
		}, mix},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.opts.Machine.TotalContexts()
			opts := tc.opts
			opts.WarmupInsts = shortWarmup * int64(n)
			opts.MeasureInsts = shortMeasure * int64(n)
			if opts.Mode == ModeSampled {
				opts.MeasureInsts *= 10
			}
			run := func(srcs []trace.Reader) Result {
				opts.Sources = srcs
				res, err := Run(context.Background(), opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			fill := tc.sources(n)
			for i, s := range fill {
				if _, ok := s.(trace.Filler); !ok {
					t.Fatalf("source %d (%T) is not a trace.Filler", i, s)
				}
			}
			plain := tc.sources(n)
			for i, s := range plain {
				plain[i] = trace.Func(s.Next)
			}
			if a, b := run(fill), run(plain); !reflect.DeepEqual(a, b) {
				t.Fatalf("Filler sources changed the result:\nfill:  %+v\nplain: %+v", a, b)
			}
		})
	}
}
