package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// smoke test spawns children of itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			os.Stderr.WriteString("daebench: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadManifest(t *testing.T) manifest {
	t.Helper()
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesMetrics keeps BENCHMARK.json and the metric tables
// in step: the same workloads with the same reasons, and the same
// metrics with the same units and directions, each end-to-end one with
// a bound.
func TestManifestMatchesMetrics(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q/%q, code %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	check := func(kind string, defs []metricDef, names, units, dirs []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: manifest declares %d metrics, code emits %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit || dirs[i] != better(d) {
				t.Errorf("%s %d: manifest %s/%s/%s, code %s/%s/%s", kind, i, names[i], units[i], dirs[i], d.name, d.unit, better(d))
			}
			if !namePattern.MatchString(d.name) || !unitPattern.MatchString(d.unit) {
				t.Errorf("%s: bad metric name or unit %q %q", kind, d.name, d.unit)
			}
		}
	}
	var names, units, dirs []string
	for _, e := range m.EndToEnd {
		names, units, dirs = append(names, e.Name), append(units, e.Unit), append(dirs, e.Better)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	check("end-to-end", endToEnd, names, units, dirs)
	names, units, dirs = nil, nil, nil
	for _, p := range m.PerLayer {
		names, units, dirs = append(names, p.Name), append(units, p.Unit), append(dirs, p.Better)
	}
	check("per-layer", perLayer, names, units, dirs)
	if m.EndToEnd[0].Name != "setup_s" {
		t.Errorf("setup_s should lead the end-to-end metrics")
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{0, 0, 0},
		{5, 5, 100},
		{19, 19, 100}, // no percentile above the median has ten beyond it
		{20, 10, 50},
		{80, 70, 87.5},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		v, p := tail(seq(tc.n))
		if v != tc.value || math.Abs(p-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, v, p, tc.value, tc.pct)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which spreads are judged with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 4, 5},
		{[]float64{2.5, 7}, 1.375, 4.75, 8.125},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestClassify attributes a fixed set of synthetic stacks (innermost
// frame first) to layers.
func TestClassify(t *testing.T) {
	const core = "repro/internal/core."
	tick := []string{core + "(*Core).Tick", core + "(*Core).Step", "repro/internal/sim.newRunner.func1", "repro/internal/sim.(*runner).window"}
	under := func(frames ...string) []string { return append(frames, tick...) }
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{under(core + "(*Core).fetch"), "core.fetch"},
		{under(core+"(*Context).peekSource", core+"(*Core).fetchThread", core+"(*Core).fetch"), "core.fetch"},
		{under("repro/internal/workload.(*mixReader).Next", core+"(*Context).peekSource", core+"(*Core).fetchThread", core+"(*Core).fetch"), "workload"},
		{under("main.(*timedPeeker).PeekNext", core+"(*Context).peekSource", core+"(*Core).fetch"), "other"},
		{under(core+"(*Core).tryDispatch", core+"(*Core).dispatch"), "core.dispatch"},
		{under("runtime.mallocgc", "runtime.newobject", core+"(*Core).dispatch"), "gc"},
		{under("runtime.memmove", core+"(*Core).issueStream", core+"(*Core).issue"), "core.issue"},
		{under("repro/internal/mem.(*System).Load", core+"(*Core).tryLoad", core+"(*Core).cacheAccess"), "mem"},
		{under("repro/internal/cache.(*Cache).Lookup", "repro/internal/mem.(*System).BeginCycle"), "mem"},
		{under(core+"(*Core).graduate.func1", core+"(*Core).graduate"), "core.graduate"},
		{under(core+"(*calendar).schedule", core+"(*Core).execute", core+"(*Core).issue"), "core.calendar"},
		{under(core + "(*Core).rotNext"), "core.other"},
		{tick, "core.other"},
		{[]string{core + "(*Core).fastForward", core + "(*Core).Step"}, "core.calendar"},
		{[]string{core + "(*Context).peekSource", core + "(*Core).warpRound", core + "(*Core).Warp", "repro/internal/sim.(*runner).runSampled"}, "core.warp"},
		{[]string{core + "(*CMP).Step", "repro/internal/sim.cmpMachine.Step"}, "core.cmp"},
		{[]string{core + "(*Core).fetch", core + "(*Core).Tick", core + "(*CMP).Tick"}, "core.fetch"},
		{[]string{"repro/internal/sim.(*runner).window", "repro/internal/sim.Run"}, "sim"},
		{[]string{"encoding/json.(*encodeState).marshal", "repro/internal/serveapi.WriteJSON"}, "json"},
		{[]string{"repro/internal/fabric.(*Router).handleRun", "net/http.HandlerFunc.ServeHTTP"}, "fabric"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*netFD).Read", "net/http.(*conn).serve"}, "net"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "os.(*File).Read", "repro/internal/runner.LoadEntry"}, "runner"},
		{[]string{"repro.Request.Hash", "main.splitRun"}, "runner"},
		{[]string{"sync/atomic.(*Pointer[go.shape.[]*repro/internal/workload.internChunk]).Load", "repro/internal/workload.(*internReader).refresh"}, "workload"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "gc"},
	} {
		if got := classify(tc.frames); got != tc.want {
			t.Errorf("classify(%s) = %s, want %s", strings.Join(tc.frames[:min(3, len(tc.frames))], " < "), got, tc.want)
		}
	}
	for _, l := range []string{"core.fetch", "core.warp", "gc", "other"} {
		found := false
		for _, known := range layers {
			found = found || known == l
		}
		if !found {
			t.Errorf("layer %s missing from the taxonomy", l)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestParseProfile decodes a real CPU profile of this process.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.ns
		for _, f := range s.frames {
			if f == "repro/daebench.spin" || f == "main.spin" {
				inSpin += s.ns
				break
			}
		}
	}
	if total <= 0 || inSpin < total/2 {
		t.Fatalf("profile: %d ns total, %d ns in spin (want most)", total, inSpin)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

// TestTimedReaderKeepsStream checks the timing wrapper passes the stream
// through unchanged and keeps the Peeker fast path exactly when the
// wrapped reader has it.
func TestTimedReaderKeepsStream(t *testing.T) {
	opts := workload.MixOpts{Seed: 424242}
	want := workload.Mix(0, opts) // first sighting: a live generator
	var rt readTimer
	live := rt.wrap(workload.Mix(0, opts)) // second sighting: interned
	if _, ok := want.(trace.Peeker); ok {
		t.Fatal("first reader of a stream should be live")
	}
	p, ok := live.(trace.Peeker)
	if !ok {
		t.Fatal("wrapper dropped the Peeker fast path of an interned stream")
	}
	if _, ok := rt.wrap(trace.Slice(nil)).(trace.Peeker); ok {
		t.Fatal("wrapper invented a Peeker for a plain reader")
	}
	var a isa.Inst
	for i := 0; i < 5000; i++ {
		want.Next(&a)
		var b *isa.Inst
		if i%2 == 0 {
			b, _ = p.PeekNext()
			b2, _ := p.PeekNext()
			if b2 != b {
				t.Fatal("PeekNext advanced the stream")
			}
			p.Consume()
		} else {
			var c isa.Inst
			p.Next(&c)
			b = &c
		}
		if *b != a {
			t.Fatalf("instruction %d differs through the wrapper", i)
		}
	}
	if rt.insts != 5000 || rt.srcs != 2 || rt.peek != 1 {
		t.Errorf("counters: insts=%d srcs=%d peek=%d", rt.insts, rt.srcs, rt.peek)
	}
}

func TestVerdict(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		cur    []float64
		higher bool
		want   string
	}{
		{[]float64{120, 121, 119}, false, "REGRESSION"},
		{[]float64{103, 102, 104}, false, "within bound"},
		{[]float64{80, 81, 79}, false, "better in every run"},
		{[]float64{80, 81, 79}, true, "REGRESSION"},
	} {
		if got := verdict(old, tc.cur, tc.higher, 0.1).text; got != tc.want {
			t.Errorf("verdict(%v, higher=%v) = %q, want %q", tc.cur, tc.higher, got, tc.want)
		}
	}
	noisy := []float64{50, 100, 150, 100, 60}
	if got := verdict(noisy, []float64{120}, false, 0.1).text; !strings.HasPrefix(got, "unresolved") {
		t.Errorf("noisy baseline: verdict %q, want unresolved", got)
	}
	if got := verdict([]float64{100}, []float64{120}, false, 0.1).text; !strings.HasPrefix(got, "unresolved") {
		t.Errorf("single old run: verdict %q, want unresolved", got)
	}
}

func TestCompareRefusesLegacySnapshots(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "BENCH_10.json")
	if err := os.WriteFile(legacy, []byte(`{"go_version":"go1.24.0","records":[{"config":"1T-L2_16","mode":"run"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, legacy+","+legacy, filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "not comparable") {
		t.Errorf("legacy snapshot not flagged:\n%s", out.String())
	}
}

// TestSmoke runs every workload at test budgets, untraced and traced,
// through child processes, and requires every output check to pass and
// exactly the declared metrics to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: 0.6, traced: traced, tiny: true, outdir: t.TempDir()}
			rec, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if _, err := os.Stat(spansPath(cfg)); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", w.name, traced, d.name, m)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if rec.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.name, rec.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}
