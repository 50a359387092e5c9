package daesim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRequestNormalizationAndHashStability(t *testing.T) {
	m := Figure2(2)
	implicit := Request{Machine: m} // zero workload kind, zero budgets
	explicit := Request{
		Machine:  m,
		Workload: Workload{Kind: WorkloadMix},
		Budget:   Budget{WarmupInsts: DefaultWarmup, MeasureInsts: DefaultMeasure},
	}
	if implicit.Hash() != explicit.Hash() {
		t.Error("defaulted and spelled-out requests hash differently")
	}
	if got := implicit.Normalized().Workload.Kind; got != WorkloadMix {
		t.Errorf("empty kind normalized to %q, want mix", got)
	}
}

func TestRequestHashExcludesLabel(t *testing.T) {
	a := MixRequest(Figure2(1), RunOpts{})
	b := a
	b.Label = "completely different label"
	if a.Hash() != b.Hash() {
		t.Error("hash depends on the label")
	}
	c := a
	c.Workload.Seed = 7
	if a.Hash() == c.Hash() {
		t.Error("seed change did not change the hash")
	}
	d := a
	d.Machine = d.Machine.WithL2Latency(64)
	if a.Hash() == d.Hash() {
		t.Error("machine change did not change the hash")
	}
}

func TestRequestJSONRoundTrip(t *testing.T) {
	b, err := BenchmarkByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]Request{
		"mix":    MixRequest(Figure2(3), RunOpts{Seed: 5, SegmentLen: 1000}),
		"bench":  BenchmarkRequest("fpppp", Section2().WithL2Latency(64), RunOpts{}),
		"custom": CustomRequest(b, Figure2(1), RunOpts{Seed: 9}),
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Request
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if back.Hash() != req.Hash() {
			t.Errorf("%s: request hash not preserved across JSON round trip", name)
		}
		if err := back.Validate(); err != nil {
			t.Errorf("%s: round-tripped request invalid: %v", name, err)
		}
	}
}

func TestValidateTypedErrors(t *testing.T) {
	valid := MixRequest(Figure2(1), RunOpts{})
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}

	cases := []struct {
		name     string
		mutate   func(*Request)
		sentinel error
	}{
		{"negative warmup", func(r *Request) { r.Budget.WarmupInsts = -1 }, ErrInvalidRequest},
		{"negative measure", func(r *Request) { r.Budget.MeasureInsts = -5 }, ErrInvalidRequest},
		{"negative max cycles", func(r *Request) { r.Budget.MaxCycles = -1 }, ErrInvalidRequest},
		{"negative segment", func(r *Request) { r.Workload.SegmentLen = -1 }, ErrInvalidRequest},
		{"unknown kind", func(r *Request) { r.Workload.Kind = "interleaved" }, ErrInvalidRequest},
		{"mix with bench", func(r *Request) { r.Workload.Bench = "swim" }, ErrInvalidRequest},
		{"custom without model", func(r *Request) { r.Workload.Kind = WorkloadCustom }, ErrInvalidRequest},
		// Stray cross-field content would silently fork the content hash
		// (every field is hashed), so it is rejected up front.
		{"bench with segment", func(r *Request) {
			r.Workload.Kind = WorkloadBench
			r.Workload.Bench = "swim"
			r.Workload.SegmentLen = 500
		}, ErrInvalidRequest},
		{"custom with stray bench", func(r *Request) {
			b, _ := BenchmarkByName("swim")
			r.Workload.Kind = WorkloadCustom
			r.Workload.Custom = &b
			r.Workload.Bench = "swim"
		}, ErrInvalidRequest},
		{"unknown benchmark", func(r *Request) {
			r.Workload.Kind = WorkloadBench
			r.Workload.Bench = "quake3"
		}, ErrUnknownBenchmark},
		{"zero threads", func(r *Request) { r.Machine.Threads = 0 }, ErrInvalidConfig},
		{"bad fetch policy", func(r *Request) { r.Machine.FetchPolicy = "lru" }, ErrInvalidConfig},
		// The retired adaptive alias of exact is an unknown mode.
		{"adaptive mode", func(r *Request) { r.Budget.Mode = "adaptive" }, ErrInvalidRequest},
	}
	for _, tc := range cases {
		req := valid
		tc.mutate(&req)
		err := req.Validate()
		if err == nil {
			t.Errorf("%s: invalid request accepted", tc.name)
			continue
		}
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: error %v does not wrap the expected sentinel", tc.name, err)
		}
		if tc.name == "adaptive mode" && !strings.Contains(err.Error(), ModeExact) {
			t.Errorf("%s: error %v does not name %s", tc.name, err, ModeExact)
		}
	}
}

func TestDeprecatedWrappersValidateUpFront(t *testing.T) {
	// Engine.Run validates the Request before scheduling it: a negative
	// budget or a bad benchmark fails fast with a typed error instead of
	// deep in the simulator.
	if _, err := runOnce(MixRequest(Figure2(1), RunOpts{MeasureInsts: -1})); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("negative budget: %v, want ErrInvalidRequest", err)
	}
	if _, err := runOnce(BenchmarkRequest("quake3", Figure2(1), RunOpts{})); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark name: %v, want ErrUnknownBenchmark", err)
	}
	if _, err := runOnce(MixRequest(Figure2(0), RunOpts{})); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("zero threads: %v, want ErrInvalidConfig", err)
	}
	if _, err := runOnce(CustomRequest(Benchmark{}, Figure2(1), RunOpts{})); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("empty custom model: %v, want ErrInvalidRequest", err)
	}
}

// TestRequestHashesPinned pins the content hashes of representative
// mix/bench requests to their values from before the memory-hierarchy
// refactor (PR 4 tree). If any of these move, every existing on-disk
// cache entry and golden hashfile silently stops matching — new Machine
// fields must marshal to nothing at their defaults (omitempty +
// normalization) precisely so this test keeps passing.
func TestRequestHashesPinned(t *testing.T) {
	pinned := []struct {
		name string
		req  Request
		hash string
	}{
		{"mix t=1", MixRequest(Figure2(1), RunOpts{}),
			"d37cb27686f513a943a88325b94fc9ef35cedad83d89e78509cf590b288f8c99"},
		{"mix t=2", MixRequest(Figure2(2), RunOpts{}),
			"10e4ec7487a2baf5903960bb71dd0dd58a337a04f3bb608e165b43c3131f8264"},
		{"mix t=4", MixRequest(Figure2(4), RunOpts{}),
			"b77110730512b6dbacb4b1654998ce4eac19f32c20469c035ccdf045cde8bbad"},
		{"mix t=8", MixRequest(Figure2(8), RunOpts{}),
			"7d9a3f0a21458333550909136e835da7ea627bfd6dbc13814bbc7fa97a494f4f"},
		{"bench swim", BenchmarkRequest("swim", Section2().WithL2Latency(64), RunOpts{MeasureInsts: 1_000_000}),
			"3dc76f7a88651c9d8941af6b3c11a5f4090ee18f8f42e970501e13ae47fd8df6"},
		{"bench tomcatv", BenchmarkRequest("tomcatv", Section2().WithL2Latency(64), RunOpts{MeasureInsts: 1_000_000}),
			"567bdafa56cbf2625ab018eec7931469326d30e76fb9e0683167f159f085b2f4"},
		{"bench fpppp", BenchmarkRequest("fpppp", Section2().WithL2Latency(64), RunOpts{MeasureInsts: 1_000_000}),
			"05ce630b1b6e81f766ee3a7ac99bdfc3227866c4dcb854aa396a5d898973dc19"},
		{"mix nondecoupled", MixRequest(Figure2(4).WithL2Latency(256).NonDecoupled(),
			RunOpts{WarmupInsts: 2000, MeasureInsts: 8000, Seed: 7}),
			"7bd9dd8b54d451ae39c4a2e39aafa3918dfba21128abf1a6d02e660b1c356bd1"},
	}
	// CMP requests (PR 7): pinned at introduction. Cores and the
	// coherence stats are omitempty, so these join the schema without
	// moving any hash above.
	pinned = append(pinned, []struct {
		name string
		req  Request
		hash string
	}{
		{"cmp 2x2 shared", MixRequest(Figure2(2).WithCores(2).
			WithHierarchy(64, SharedL2(256<<10, 8)), RunOpts{}),
			"03c499234b2ed9d2c05d0c09c19d7c55cfcbdfb3beb67fb844d854d29da64002"},
		{"cmp 2x1 private", MixRequest(Figure2(1).WithCores(2).
			WithHierarchy(64, SharedL2(64<<10, 8)).WithPrivateHierarchy(), RunOpts{}),
			"d90cf9c962b025ad0528bc1d7f09fec7bc2f19b3f2dd8f02919249697e496858"},
	}...)
	// Execution-mode requests (PR 8): pinned at introduction. Mode and
	// Sampling are omitempty and exact mode normalizes to the zero value,
	// so these join the schema without moving any hash above, and sampled
	// requests always hash with their parameters spelled out.
	pinned = append(pinned, []struct {
		name string
		req  Request
		hash string
	}{
		{"mode sampled defaults", func() Request {
			r := MixRequest(Figure2(4), RunOpts{MeasureInsts: 10_000_000})
			r.Budget.Mode = ModeSampled
			return r.Normalized()
		}(),
			"71da26cf2745ccbd091c3394a021c1976e969ff17293ed1f8845bc55fa026a64"},
		{"mode sampled custom", func() Request {
			r := MixRequest(Figure2(1).WithL2Latency(256), RunOpts{MeasureInsts: 1_000_000})
			r.Budget.Mode = ModeSampled
			r.Budget.Sampling = &Sampling{PeriodInsts: 50_000, UnitInsts: 1_000, WarmupInsts: 2_000}
			return r.Normalized()
		}(),
			"55306547d455ce5ef9109fc66d86afaa755d222954cdfda9132741f9ec33dadd"},
	}...)
	// Trace-replay and speculative-DAE requests (PR 9): pinned at
	// introduction. Workload.Trace and Machine.Spec are omitempty and
	// fold to nothing when absent, so these join the schema without
	// moving any hash above; a speculation block always hashes with its
	// squash penalty spelled out.
	pinned = append(pinned, []struct {
		name string
		req  Request
		hash string
	}{
		{"trace t=4", TraceRequest("traces/swim.dct", Figure2(4), RunOpts{}),
			"e4fc435a99fa411ce6500cf79175c9e180ce84f76c70d16a10ab97a335316fd2"},
		{"spec t=4", MixRequest(Figure2(4).WithSpeculation(
			Speculation{SpecLoadFrac: 0.3, MisspecProb: 0.05, LoDEvery: 500}), RunOpts{}),
			"7775e919901691f767890c26120a85d11baeeaadce502a1b83cb2c372ebf773b"},
		{"lod only t=1", MixRequest(Figure2(1).WithSpeculation(
			Speculation{LoDEvery: 200}), RunOpts{}),
			"5d44b9cfc20505aa29f093931b6498fe9f6ca7be24216da84be176608eb522cd"},
	}...)
	for _, p := range pinned {
		if got := p.req.Hash(); got != p.hash {
			t.Errorf("%s: hash %s, want pinned %s (cache schema broken)", p.name, got, p.hash)
		}
	}
}

// TestRequestModeNormalization: exact is the zero mode — a spelled-out
// "exact" canonicalizes away so it cannot fork the cache keyspace, a
// sampled request always hashes with its sampling parameters spelled out
// (never depending on the compiled-in defaults), and mode/sampling
// mismatches fail validation.
func TestRequestModeNormalization(t *testing.T) {
	base := MixRequest(Figure2(2), RunOpts{})
	spelled := MixRequest(Figure2(2), RunOpts{})
	spelled.Budget.Mode = ModeExact
	if spelled.Normalized().Hash() != base.Hash() {
		t.Error("explicit exact mode hashes apart from the default request")
	}

	// Defaults spelled out: a sampled request with nil sampling must hash
	// identically to one naming the default parameters explicitly.
	implicit := MixRequest(Figure2(2), RunOpts{MeasureInsts: 1_000_000})
	implicit.Budget.Mode = ModeSampled
	explicit := MixRequest(Figure2(2), RunOpts{MeasureInsts: 1_000_000})
	explicit.Budget.Mode = ModeSampled
	explicit.Budget.Sampling = &Sampling{
		PeriodInsts: sim.DefaultSamplingPeriod,
		UnitInsts:   sim.DefaultSamplingUnit,
		WarmupInsts: sim.DefaultSamplingWarmup,
	}
	if implicit.Normalized().Hash() != explicit.Normalized().Hash() {
		t.Error("sampled defaults not spelled out by Normalized: implicit and explicit requests hash apart")
	}
	if got := implicit.Normalized().Budget.Sampling; got == nil || got.PeriodInsts != sim.DefaultSamplingPeriod {
		t.Errorf("Normalized left sampling parameters unresolved: %+v", got)
	}

	// Sampling parameters only make sense in sampled mode.
	stray := MixRequest(Figure2(2), RunOpts{})
	stray.Budget.Sampling = &Sampling{PeriodInsts: 1000, UnitInsts: 100, WarmupInsts: 100}
	if err := stray.Validate(); err == nil {
		t.Error("sampling parameters accepted outside sampled mode")
	}

	bad := MixRequest(Figure2(2), RunOpts{MeasureInsts: 1_000_000})
	bad.Budget.Mode = "turbo"
	if err := bad.Validate(); err == nil {
		t.Error("unknown mode accepted")
	}

	overlong := MixRequest(Figure2(2), RunOpts{MeasureInsts: 1_000_000})
	overlong.Budget.Mode = ModeSampled
	overlong.Budget.Sampling = &Sampling{PeriodInsts: 500, UnitInsts: 400, WarmupInsts: 200}
	if err := overlong.Validate(); err == nil {
		t.Error("unit+warmup exceeding the period accepted")
	}
}

// TestRequestCoresNormalization: one core IS the single-core machine —
// an explicit Cores=1 canonicalizes to the zero value, so it cannot fork
// the cache keyspace, and multi-core requests hash apart from their
// single-core bases.
func TestRequestCoresNormalization(t *testing.T) {
	base := MixRequest(Figure2(2), RunOpts{})
	one := MixRequest(Figure2(2).WithCores(1), RunOpts{})
	if one.Hash() != base.Hash() {
		t.Error("Cores=1 request hashes apart from the default single-core request")
	}
	two := MixRequest(Figure2(2).WithCores(2), RunOpts{})
	if two.Hash() == base.Hash() {
		t.Error("2-core request shares the single-core hash")
	}
	if !strings.Contains(two.label(), "cores=2") {
		t.Errorf("multi-core label %q does not name the core count", two.label())
	}
	if strings.Contains(base.label(), "cores") {
		t.Errorf("single-core label %q mentions cores", base.label())
	}
}

// TestRequestHierarchyNormalization: hierarchy requests canonicalize —
// the unused flat L2 latency is zeroed so hand-assembled and
// WithHierarchy-built machines share a hash — and an empty Hierarchy
// stays the default model with its default hash.
func TestRequestHierarchyNormalization(t *testing.T) {
	flat := MixRequest(Figure2(2), RunOpts{})

	byHand := flat
	byHand.Machine.Mem.Hierarchy = []LevelSpec{SharedL2(512<<10, 8)}
	byHand.Machine.Mem.DRAMLatency = 64 // leaves L2Latency=16 stale

	built := MixRequest(Figure2(2).WithHierarchy(64, SharedL2(512<<10, 8)), RunOpts{})
	if byHand.Hash() != built.Hash() {
		t.Error("hand-assembled hierarchy request hashes apart from WithHierarchy")
	}
	if byHand.Hash() == flat.Hash() {
		t.Error("hierarchy request shares the flat model's hash")
	}
	if err := byHand.Validate(); err != nil {
		t.Errorf("normalizable hierarchy request rejected: %v", err)
	}

	// JSON "Hierarchy":[] round-trips back to the default model.
	empty := flat
	empty.Machine.Mem.Hierarchy = []LevelSpec{}
	if empty.Hash() != flat.Hash() {
		t.Error("empty non-nil hierarchy changed the default hash")
	}

	// The hierarchy request round-trips through JSON with its hash.
	raw, err := json.Marshal(built)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Hash() != built.Hash() {
		t.Error("hierarchy request hash not preserved across JSON round trip")
	}

	// Stray DRAM latency without levels is rejected, not silently hashed.
	stray := flat
	stray.Machine.Mem.DRAMLatency = 64
	if err := stray.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("DRAM latency without hierarchy: %v, want ErrInvalidConfig", err)
	}
}

func TestRequestLabelDerivation(t *testing.T) {
	req := BenchmarkRequest("swim", Figure2(2).WithL2Latency(64), RunOpts{})
	if got := req.label(); !strings.Contains(got, "swim") || !strings.Contains(got, "threads=2") {
		t.Errorf("derived label %q missing workload or config", got)
	}
	req.Label = "mine"
	if req.label() != "mine" {
		t.Error("explicit label not honoured")
	}
}

func TestRequestSpeculationNormalization(t *testing.T) {
	base := MixRequest(Figure2(2), RunOpts{})

	// An all-zero speculation block is the disabled model: it folds to nil
	// and hashes as the plain machine, so "no speculation" has one hash.
	zero := MixRequest(Figure2(2).WithSpeculation(Speculation{}), RunOpts{})
	if zero.Hash() != base.Hash() {
		t.Error("zero speculation block forked the hash from the plain machine")
	}
	if zero.Normalized().Machine.Spec != nil {
		t.Error("zero speculation block did not normalize to nil")
	}

	// A defaulted squash penalty hashes as the spelled-out default.
	implicit := MixRequest(Figure2(2).WithSpeculation(
		Speculation{SpecLoadFrac: 0.4}), RunOpts{})
	explicit := MixRequest(Figure2(2).WithSpeculation(
		Speculation{SpecLoadFrac: 0.4, SquashCycles: DefaultSquashCycles}), RunOpts{})
	if implicit.Hash() != explicit.Hash() {
		t.Error("defaulted and spelled-out squash penalties hash differently")
	}
	// Normalization copies; the input request's block is untouched.
	m := Figure2(2).WithSpeculation(Speculation{SpecLoadFrac: 0.4})
	Request{Machine: m}.Normalized()
	if got := m.Spec.SquashCycles; got != 0 {
		t.Errorf("Normalized mutated the input's speculation block (SquashCycles=%d)", got)
	}

	// An LoD-only block keeps SquashCycles at zero: there is nothing to
	// squash without speculative loads, so no default is invented.
	lod := MixRequest(Figure2(1).WithSpeculation(Speculation{LoDEvery: 100}), RunOpts{})
	if got := lod.Normalized().Machine.Spec.SquashCycles; got != 0 {
		t.Errorf("LoD-only block grew a squash penalty (%d)", got)
	}

	bad := []struct {
		name string
		spec Speculation
	}{
		{"frac above one", Speculation{SpecLoadFrac: 1.5}},
		{"negative frac", Speculation{SpecLoadFrac: -0.1}},
		{"misspec above one", Speculation{SpecLoadFrac: 0.5, MisspecProb: 2}},
		{"negative squash", Speculation{SpecLoadFrac: 0.5, SquashCycles: -1}},
		{"negative lod", Speculation{LoDEvery: -3}},
		{"misspec without loads", Speculation{MisspecProb: 0.2}},
	}
	for _, tc := range bad {
		req := MixRequest(Figure2(1).WithSpeculation(tc.spec), RunOpts{})
		if err := req.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

func TestRequestTraceNormalizationAndValidation(t *testing.T) {
	// The container is the only replay format, so every spelling of it
	// ("auto" and "container" in any letter case) normalizes to the
	// empty default and shares its hash; redundant path segments do not
	// fork the hash either.
	a := TraceRequest("traces/swim.dct", Figure2(2), RunOpts{})
	for _, f := range []string{"", "auto", "AUTO", "container", "Container"} {
		r := TraceRequest("./traces//swim.dct", Figure2(2), RunOpts{})
		r.Workload.Trace.Format = f
		if got := r.Normalized().Workload.Trace.Format; got != "" {
			t.Errorf("format %q normalized to %q, want \"\"", f, got)
		}
		if r.Hash() != a.Hash() {
			t.Errorf("format %q hashes apart from the empty default", f)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("format %q rejected: %v", f, err)
		}
	}

	if err := a.Validate(); err != nil {
		t.Fatalf("valid trace request rejected: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*Request)
	}{
		{"stray trace on mix", func(r *Request) {
			*r = MixRequest(Figure2(1), RunOpts{})
			r.Workload.Trace = &TraceRef{Path: "x.dct"}
		}},
		{"missing reference", func(r *Request) { r.Workload.Trace = nil }},
		{"empty path", func(r *Request) { r.Workload.Trace = &TraceRef{} }},
		{"format pcap", func(r *Request) { r.Workload.Trace.Format = "pcap" }},
		{"format legacy", func(r *Request) { r.Workload.Trace.Format = "legacy" }},
		{"format bin", func(r *Request) { r.Workload.Trace.Format = "bin" }},
		{"format text", func(r *Request) { r.Workload.Trace.Format = "text" }},
		{"trace with bench", func(r *Request) { r.Workload.Bench = "swim" }},
		{"trace with seed", func(r *Request) { r.Workload.Seed = 9 }},
		{"trace with segment", func(r *Request) { r.Workload.SegmentLen = 100 }},
	}
	for _, tc := range bad {
		req := a
		req.Workload.Trace = &TraceRef{Path: a.Workload.Trace.Path, Format: a.Workload.Trace.Format}
		tc.mutate(&req)
		err := req.Validate()
		if !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: %v, want ErrInvalidRequest", tc.name, err)
		}
		if strings.HasPrefix(tc.name, "format ") && !strings.Contains(fmt.Sprint(err), "dae-trace import") {
			t.Errorf("%s: %v does not name dae-trace import", tc.name, err)
		}
	}
}

// FuzzRequestJSON feeds arbitrary bytes through the Request decoding
// path every service shares: decoding must never panic, a Request that
// Validate accepts must normalize idempotently, Hash must equal the
// normalized Request's hash, and the hash must survive a JSON
// re-encode. The seed corpus holds the TestRequestHashesPinned rows and
// an oversized machine.
func FuzzRequestJSON(f *testing.F) {
	mode := func(r Request, mode string, s *Sampling) Request {
		r.Budget.Mode, r.Budget.Sampling = mode, s
		return r
	}
	// A machine too large to allocate must fail Validate, not the run.
	hugeROB := Figure2(1)
	hugeROB.ROBSize = min(1<<40, math.MaxInt)
	seeds := []Request{
		MixRequest(Figure2(1), RunOpts{}),
		MixRequest(Figure2(2), RunOpts{}),
		MixRequest(Figure2(4), RunOpts{}),
		MixRequest(Figure2(8), RunOpts{}),
		BenchmarkRequest("swim", Section2().WithL2Latency(64), RunOpts{MeasureInsts: 1_000_000}),
		BenchmarkRequest("tomcatv", Section2().WithL2Latency(64), RunOpts{MeasureInsts: 1_000_000}),
		BenchmarkRequest("fpppp", Section2().WithL2Latency(64), RunOpts{MeasureInsts: 1_000_000}),
		MixRequest(Figure2(4).WithL2Latency(256).NonDecoupled(),
			RunOpts{WarmupInsts: 2000, MeasureInsts: 8000, Seed: 7}),
		MixRequest(Figure2(2).WithCores(2).WithHierarchy(64, SharedL2(256<<10, 8)), RunOpts{}),
		MixRequest(Figure2(1).WithCores(2).
			WithHierarchy(64, SharedL2(64<<10, 8)).WithPrivateHierarchy(), RunOpts{}),
		mode(MixRequest(Figure2(4), RunOpts{}), "adaptive", nil),
		mode(MixRequest(Figure2(4), RunOpts{MeasureInsts: 10_000_000}), ModeSampled, nil),
		mode(MixRequest(Figure2(1).WithL2Latency(256), RunOpts{MeasureInsts: 1_000_000}), ModeSampled,
			&Sampling{PeriodInsts: 50_000, UnitInsts: 1_000, WarmupInsts: 2_000}),
		TraceRequest("traces/swim.dct", Figure2(4), RunOpts{}),
		MixRequest(Figure2(4).WithSpeculation(
			Speculation{SpecLoadFrac: 0.3, MisspecProb: 0.05, LoDEvery: 500}), RunOpts{}),
		MixRequest(Figure2(1).WithSpeculation(Speculation{LoDEvery: 200}), RunOpts{}),
		MixRequest(hugeROB, RunOpts{}),
	}
	for _, r := range seeds {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Request
		if json.Unmarshal(data, &r) != nil {
			return
		}
		h := r.Hash()
		if n := r.Normalized(); n.Hash() != h {
			t.Fatalf("Hash %s != Normalized().Hash() %s", h, n.Hash())
		}
		if r.Validate() != nil {
			return
		}
		n := r.Normalized()
		if nn := n.Normalized(); !reflect.DeepEqual(nn, n) {
			t.Fatalf("Normalized is not idempotent:\n once: %+v\ntwice: %+v", n, nn)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Request
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-decode %s: %v", b, err)
		}
		if back.Hash() != h {
			t.Fatalf("hash moved across a JSON round-trip: %s -> %s\n%s", h, back.Hash(), b)
		}
	})
}
