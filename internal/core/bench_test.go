package core_test

// Core microbenchmarks: raw simulation throughput of the hot loop, with
// and without the fast-forward scheduler, plus a steady-state allocation
// check on Tick. CI runs these with -benchmem and compares against the
// base commit with benchstat (see .github/workflows/ci.yml); run locally
// with
//
//	go test -run '^$' -bench . -benchmem ./internal/core
//
// BenchmarkCoreRun/4T-L2_256 vs BenchmarkCoreRunStepped/4T-L2_256 is the
// headline pair: the paper's interesting regime is huge memory latency,
// which is exactly where most cycles are provably idle and skippable.

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchInsts is the per-iteration graduation target. Large enough to
// reach steady state (warmed caches, saturated queues), small enough to
// keep -count=3 runs quick.
const benchInsts = 120_000

type benchConfig struct {
	name    string
	machine config.Machine
}

// benchConfigs are the CoreRun machines. The -scaled pair is Figure 4's
// regime: the Section-2 rule scales every queue, ROB and register file
// with L2 latency (16× at L2=256), so the in-flight window is large.
func benchConfigs() []benchConfig {
	scaled := config.Figure2(4).WithL2Latency(256)
	scaled.ScaleWithLatency = true
	return []benchConfig{
		{"1T-L2_16", config.Figure2(1)},
		{"1T-L2_256", config.Figure2(1).WithL2Latency(256)},
		{"4T-L2_16", config.Figure2(4)},
		{"4T-L2_256", config.Figure2(4).WithL2Latency(256)},
		{"4T-L2_256-scaled", scaled},
		{"4T-L2_256-scaled-nondecoupled", scaled.NonDecoupled()},
	}
}

func newBenchCore(b *testing.B, m config.Machine) *core.CMP {
	b.Helper()
	c, err := core.NewCMP(m, workload.MixSources(m.Threads, workload.MixOpts{}))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// runTo advances the machine (fast-forwarding) until the graduation
// target.
func runTo(c *core.CMP, insts int64) {
	const horizon = int64(1) << 50
	for c.Graduated() < insts {
		c.Step(horizon)
	}
}

// BenchmarkCoreRun measures simulated instructions per second with the
// fast-forward scheduler (the default mode of sim.Run).
func BenchmarkCoreRun(b *testing.B) {
	for _, cfg := range benchConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			var skipped, cycles int64
			for i := 0; i < b.N; i++ {
				c := newBenchCore(b, cfg.machine)
				runTo(c, benchInsts)
				skipped += core.SkippedCycles(c)
				cycles += c.Core(0).Collector().Cycles
			}
			reportSimRate(b, cycles)
			b.ReportMetric(100*float64(skipped)/float64(cycles), "skipped-%")
		})
	}
}

// BenchmarkCoreRunStepped is the cycle-by-cycle baseline the fast-forward
// speedup is measured against.
func BenchmarkCoreRunStepped(b *testing.B) {
	for _, cfg := range benchConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				c := newBenchCore(b, cfg.machine)
				for c.Graduated() < benchInsts {
					c.Tick()
				}
				cycles += c.Core(0).Collector().Cycles
			}
			reportSimRate(b, cycles)
		})
	}
}

func reportSimRate(b *testing.B, cycles int64) {
	b.Helper()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(benchInsts)*float64(b.N)/sec, "insts/s")
		b.ReportMetric(float64(cycles)/sec, "cycles/s")
	}
}

// BenchmarkTick measures one steady-state cycle of the 4-thread machine.
// The headline number is allocs/op: the hot loop must not allocate once
// the pipeline has reached steady state.
func BenchmarkTick(b *testing.B) {
	for _, cfg := range []benchConfig{
		{"4T-L2_16", config.Figure2(4)},
		{"4T-L2_256", config.Figure2(4).WithL2Latency(256)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			c := newBenchCore(b, cfg.machine)
			runTo(c, 40_000) // warm caches, fill queues, grow all pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Tick()
			}
		})
	}
}

// BenchmarkStep measures the fast-forwarding scheduler at the same
// steady state, skips included (also required to be allocation-free).
func BenchmarkStep(b *testing.B) {
	c := newBenchCore(b, config.Figure2(4).WithL2Latency(256))
	runTo(c, 40_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(int64(1) << 50)
	}
}

// warpSeed hands every BenchmarkWarp machine a never-seen mix seed, so
// its streams are generated live — a repeated seed would be interned and
// replayed from the second round on, a different source path.
var warpSeed uint64 = 1 << 40

// BenchmarkWarp measures the sampled-mode functional warp over live mix
// streams, generation included, as in a sampled run's gaps: one op is
// one warped instruction. 4T-sharedL2 takes the warm path through the
// finite hierarchy instead of the flat tag probe; 4T-plain hides the
// generators' Fill behind trace.Func, so windows fill one Next at a time.
func BenchmarkWarp(b *testing.B) {
	for _, cfg := range []struct {
		benchConfig
		plain bool
	}{
		{benchConfig{"1T", config.Figure2(1)}, false},
		{benchConfig{"4T", config.Figure2(4)}, false},
		{benchConfig{"4T-sharedL2", config.Figure2(4).WithHierarchy(64, config.SharedL2(256<<10, 8))}, false},
		{benchConfig{"4T-plain", config.Figure2(4)}, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			warpSeed++
			srcs := workload.MixSources(cfg.machine.Threads, workload.MixOpts{Seed: warpSeed})
			for i, s := range srcs {
				if cfg.plain {
					srcs[i] = trace.Func(s.Next)
				}
			}
			c, err := core.NewCMP(cfg.machine, srcs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if got := c.Warp(int64(b.N)); got != int64(b.N) {
				b.Fatalf("warped %d of %d", got, b.N)
			}
		})
	}
}

// TestBenchConfigsValid guards the benchmark configurations against
// silent config/workload API drift.
func TestBenchConfigsValid(t *testing.T) {
	for _, cfg := range benchConfigs() {
		if _, err := core.NewCMP(cfg.machine, workload.MixSources(cfg.machine.Threads, workload.MixOpts{})); err != nil {
			t.Errorf("%s: %v", cfg.name, err)
		}
	}
}
