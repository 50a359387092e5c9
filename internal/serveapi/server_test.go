package serveapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	daesim "repro"
	"repro/internal/workload"
)

// tinyOpts keeps handler-test simulations in the millisecond range.
func tinyOpts() daesim.RunOpts {
	return daesim.RunOpts{WarmupInsts: 500, MeasureInsts: 2_000}
}

func newTestServer(t *testing.T, opts daesim.EngineOpts, timeout time.Duration) (*httptest.Server, *daesim.Engine) {
	t.Helper()
	eng, err := daesim.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(eng, timeout, DefaultMaxBody))
	t.Cleanup(ts.Close)
	return ts, eng
}

// do issues one JSON request and decodes the reply into out.
func do(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode reply: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestRunEndpointGolden pins the full request/response JSON of
// POST /v1/runs: the response must be exactly the envelope around the
// report the public API computes for the same Request — the golden value
// is derived, not hand-maintained, because the simulator is
// deterministic.
func TestRunEndpointGolden(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	req := daesim.MixRequest(daesim.Figure2(1), tinyOpts())
	req.Label = "golden"

	// Independent reference engine: determinism makes its report the
	// golden value for the served one.
	refEng, err := daesim.NewEngine(daesim.EngineOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := refEng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	var goldenBuf bytes.Buffer
	enc := json.NewEncoder(&goldenBuf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(RunResponse{
		Label:  "golden",
		Hash:   req.Hash(),
		Cached: false,
		Report: &wantReport,
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), goldenBuf.String(); got != want {
		t.Errorf("response is not byte-identical to the golden envelope\ngot:  %s\nwant: %s", got, want)
	}
}

func TestRunEndpointCacheHitVsMiss(t *testing.T) {
	ts, eng := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	req := daesim.BenchmarkRequest("swim", daesim.Figure2(1), tinyOpts())

	var first, second RunResponse
	if code := do(t, "POST", ts.URL+"/v1/runs", req, &first); code != 200 {
		t.Fatalf("miss status %d", code)
	}
	if first.Cached || first.Hash != req.Hash() || first.Report == nil {
		t.Fatalf("miss response: %+v", first)
	}
	if code := do(t, "POST", ts.URL+"/v1/runs", req, &second); code != 200 {
		t.Fatalf("hit status %d", code)
	}
	if !second.Cached {
		t.Error("second POST of the same request not served from cache")
	}
	if a, _ := json.Marshal(first.Report); true {
		if b, _ := json.Marshal(second.Report); !bytes.Equal(a, b) {
			t.Error("cached report differs from computed report")
		}
	}
	if s := eng.Stats(); s.Simulated != 1 || s.CacheHits != 1 {
		t.Errorf("engine stats %+v, want 1 simulated + 1 hit", s)
	}
}

func TestGetByHashEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	req := daesim.MixRequest(daesim.Figure2(1), tinyOpts())

	// Unknown hash: 404 with a JSON error body.
	var errResp ErrorResponse
	if code := do(t, "GET", ts.URL+"/v1/runs/"+req.Hash(), nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("unknown hash status %d, want 404", code)
	}
	if !strings.Contains(errResp.Error, "no cached result") {
		t.Errorf("404 body: %+v", errResp)
	}

	// Compute it, then GET serves it without re-simulating.
	var run RunResponse
	if code := do(t, "POST", ts.URL+"/v1/runs", req, &run); code != 200 {
		t.Fatalf("POST status %d", code)
	}
	var got RunResponse
	if code := do(t, "GET", ts.URL+"/v1/runs/"+req.Hash(), nil, &got); code != 200 {
		t.Fatalf("GET status %d", code)
	}
	if !got.Cached || got.Report == nil {
		t.Fatalf("GET response: %+v", got)
	}
	a, _ := json.Marshal(run.Report)
	b, _ := json.Marshal(got.Report)
	if !bytes.Equal(a, b) {
		t.Error("GET served a different report than the POST computed")
	}
}

// TestGetByHashRefusesPathHashes: GET /v1/runs/{hash} looks a hash up
// only if it is lowercase hex, so an escaped path never reaches a file
// outside the cache directory, even one that parses as an entry filed
// under that very path.
func TestGetByHashRefusesPathHashes(t *testing.T) {
	root := t.TempDir()
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1, CacheDir: filepath.Join(root, "cache")}, 0)
	planted, err := json.Marshal(map[string]any{"Hash": "../x", "Key": "planted", "Report": daesim.Report{Threads: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "x.json"), planted, 0o644); err != nil {
		t.Fatal(err)
	}
	var got RunResponse
	if code := do(t, "GET", ts.URL+"/v1/runs/..%2Fx", nil, &got); code != http.StatusNotFound {
		t.Fatalf("path-shaped hash: status %d (report %+v), want 404", code, got.Report)
	}
}

func TestSweepEndpointPartialFailure(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 2}, 0)
	sweep := SweepRequest{Requests: []daesim.Request{
		daesim.MixRequest(daesim.Figure2(1), tinyOpts()),
		daesim.BenchmarkRequest("quake3", daesim.Figure2(1), tinyOpts()), // invalid
		daesim.BenchmarkRequest("swim", daesim.Figure2(1), tinyOpts()),
	}}
	var resp SweepResponse
	if code := do(t, "POST", ts.URL+"/v1/sweeps", sweep, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 3 || resp.Failed != 1 {
		t.Fatalf("results=%d failed=%d, want 3/1", len(resp.Results), resp.Failed)
	}
	if resp.Results[0].Error != "" || resp.Results[0].Report == nil {
		t.Errorf("result 0: %+v", resp.Results[0])
	}
	if !strings.Contains(resp.Results[1].Error, "unknown benchmark") || resp.Results[1].Report != nil {
		t.Errorf("result 1: %+v", resp.Results[1])
	}
	if resp.Results[2].Error != "" || resp.Results[2].Report == nil {
		t.Errorf("result 2: %+v", resp.Results[2])
	}
}

func TestValidationMapsToBadRequest(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"machine": `},
		{"unknown field", `{"machien": {}}`},
		{"zero threads", `{"machine": {"Threads": 0}, "workload": {"kind": "mix"}}`},
		{"unknown benchmark", `{"machine": {"Threads": 1}, "workload": {"kind": "bench", "bench": "quake3"}}`},
		{"negative budget", `{"workload": {"kind": "mix"}, "budget": {"warmupInsts": -1, "measureInsts": 100}}`},
		{"adaptive mode", `{"machine": {"Threads": 1}, "workload": {"kind": "mix"}, "budget": {"measureInsts": 100, "mode": "adaptive"}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body ErrorResponse
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%+v)", tc.name, resp.StatusCode, body)
		}
		if body.Error == "" {
			t.Errorf("%s: missing JSON error body", tc.name)
		}
		if tc.name == "adaptive mode" && !strings.Contains(body.Error, daesim.ModeExact) {
			t.Errorf("%s: error %q does not name %s", tc.name, body.Error, daesim.ModeExact)
		}
	}

	// Empty and oversized sweeps are rejected before any work happens.
	for _, body := range []string{`{"requests": []}`, `{}`} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("empty sweep %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestOversizedMachineMapsToBadRequest: a machine too large to simulate
// is a 400 from validation, never a run — an out-of-memory crash cannot
// be recovered and would take the replica down. The replica keeps
// serving afterwards.
func TestOversizedMachineMapsToBadRequest(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	hugeROB := daesim.Figure2(1)
	// Past every bound: 1<<40 where int is 64 bits, the largest int
	// where it is 32.
	const huge = min(1<<40, math.MaxInt)
	hugeROB.ROBSize = huge
	hugeScale := daesim.Section2().WithL2Latency(1 << 40)
	for name, m := range map[string]daesim.Machine{
		"huge ROB":          hugeROB,
		"huge threads":      daesim.Figure2(huge),
		"huge cores":        daesim.Figure2(1).WithCores(huge),
		"scaled L2 latency": hugeScale,
		"contexts past 256": daesim.Figure2(64).WithCores(8),
	} {
		req := daesim.MixRequest(m, tinyOpts())
		if err := req.Validate(); !errors.Is(err, daesim.ErrInvalidConfig) {
			t.Errorf("%s: Validate = %v, want ErrInvalidConfig", name, err)
		}
		var er ErrorResponse
		if code := do(t, http.MethodPost, ts.URL+"/v1/runs", req, &er); code != http.StatusBadRequest || er.Error == "" {
			t.Errorf("%s: status %d (%+v), want 400 with an error body", name, code, er)
		}
	}
	var rr RunResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", daesim.MixRequest(daesim.Figure2(1), tinyOpts()), &rr); code != http.StatusOK {
		t.Fatalf("follow-up run: status %d", code)
	}
}

func TestClientCancellationAbortsRun(t *testing.T) {
	ts, eng := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	// A run only cancellation can end quickly.
	req := daesim.MixRequest(daesim.Figure2(1), daesim.RunOpts{WarmupInsts: 500, MeasureInsts: 500_000_000})
	raw, _ := json.Marshal(req)

	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/runs", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := http.DefaultClient.Do(httpReq); !errors.Is(err, context.Canceled) {
		t.Fatalf("client saw %v, want context.Canceled", err)
	}
	// The server must notice the disconnect and abort the simulation
	// (the engine records it as a failure) well before the run's natural
	// length.
	deadline := time.Now().Add(2 * time.Second)
	for eng.Stats().Failures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never aborted the abandoned simulation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("abort took %v", elapsed)
	}
	// Aborted work is not cached, and the server still works.
	if _, ok := eng.Lookup(req.Hash()); ok {
		t.Error("aborted run left a cache entry")
	}
	var health HealthResponse
	if code := do(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 || !health.OK {
		t.Fatalf("healthz after abort: code=%d %+v", code, health)
	}
}

func TestServerTimeoutMapsToGatewayTimeout(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1}, 50*time.Millisecond)
	req := daesim.MixRequest(daesim.Figure2(1), daesim.RunOpts{WarmupInsts: 500, MeasureInsts: 500_000_000})
	var body ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/runs", req, &body); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%+v)", code, body)
	}
}

func TestHealthzGolden(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	want := fmt.Sprintf("{\n  \"ok\": true,\n  \"stats\": {\n    \"Simulated\": 0,\n    \"CacheHits\": 0,\n    \"Failures\": 0,\n    \"CacheWriteErrors\": 0\n  }\n}\n")
	if buf.String() != want {
		t.Errorf("healthz body:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestRunEndpointHierarchyRequest: the finite-hierarchy config surface
// flows through the HTTP API — a Request with a shared L2 + DRAM runs,
// reports per-level stats, and is served back by its canonical hash
// even when the client left the stale flat L2 latency in place (the
// server normalizes).
func TestRunEndpointHierarchyRequest(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	req := daesim.MixRequest(daesim.Figure2(2).WithHierarchy(64, daesim.SharedL2(128<<10, 8)), tinyOpts())

	// A client hand-editing JSON might leave the flat latency set; the
	// canonical hash must not depend on it.
	sloppy := req
	sloppy.Machine.Mem.L2Latency = 16

	var rr RunResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", sloppy, &rr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if rr.Hash != req.Hash() {
		t.Errorf("served hash %s, want normalized %s", rr.Hash, req.Hash())
	}
	if rr.Report == nil || len(rr.Report.MemLevels) != 1 {
		t.Fatalf("report missing per-level stats: %+v", rr.Report)
	}
	l2 := rr.Report.MemLevels[0]
	if l2.Name != "L2" || l2.Accesses == 0 {
		t.Errorf("L2 level stats empty: %+v", l2)
	}
	// And the cache serves it back by hash, levels intact.
	var again RunResponse
	if code := do(t, http.MethodGet, ts.URL+"/v1/runs/"+req.Hash(), nil, &again); code != http.StatusOK {
		t.Fatalf("GET by hash status %d", code)
	}
	if !again.Cached || len(again.Report.MemLevels) != 1 {
		t.Errorf("cache round-trip lost the hierarchy levels: %+v", again)
	}
}

// TestRunEndpointCMPRequest: a multi-core request round-trips through
// the service — normalized hash (Cores=1 folds to the single-core
// encoding), per-core L1 levels plus the shared L2 in the report, and a
// cache hit serving the same levels back.
func TestRunEndpointCMPRequest(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	req := daesim.MixRequest(daesim.Figure2(1).WithCores(2).
		WithHierarchy(64, daesim.SharedL2(128<<10, 8)), tinyOpts())

	var rr RunResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", req, &rr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if rr.Hash != req.Hash() {
		t.Errorf("served hash %s, want %s", rr.Hash, req.Hash())
	}
	if rr.Report == nil || rr.Report.Cores != 2 {
		t.Fatalf("report not multi-core: %+v", rr.Report)
	}
	names := make(map[string]bool)
	for _, lv := range rr.Report.MemLevels {
		names[lv.Name] = true
	}
	for _, want := range []string{"c0.L1", "c1.L1", "L2"} {
		if !names[want] {
			t.Errorf("report levels missing %q (have %v)", want, names)
		}
	}
	if len(rr.Report.PerCoreGraduated) != 2 {
		t.Errorf("PerCoreGraduated = %v", rr.Report.PerCoreGraduated)
	}

	// An explicit Cores=1 must normalize into the single-core keyspace.
	one := daesim.MixRequest(daesim.Figure2(2).WithCores(1), tinyOpts())
	base := daesim.MixRequest(daesim.Figure2(2), tinyOpts())
	var or RunResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", one, &or); code != http.StatusOK {
		t.Fatalf("Cores=1 status %d", code)
	}
	if or.Hash != base.Hash() {
		t.Errorf("Cores=1 hash %s, want the single-core %s", or.Hash, base.Hash())
	}

	// Cache round-trip keeps the CMP fields.
	var again RunResponse
	if code := do(t, http.MethodGet, ts.URL+"/v1/runs/"+req.Hash(), nil, &again); code != http.StatusOK {
		t.Fatalf("GET by hash status %d", code)
	}
	if !again.Cached || again.Report.Cores != 2 {
		t.Errorf("cache round-trip lost the CMP shape: %+v", again.Report)
	}
}

// TestRunEndpointSampledRequest: a sampled-mode request passes through
// the service — normalized hash (defaults spelled out), a Sampled
// summary in the report, exact mode untouched in its own keyspace, and
// invalid mode/sampling combinations mapping to 400s.
func TestRunEndpointSampledRequest(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	req := daesim.MixRequest(daesim.Figure2(1), daesim.RunOpts{WarmupInsts: 500, MeasureInsts: 100_000})
	req.Budget.Mode = daesim.ModeSampled
	req.Budget.Sampling = &daesim.Sampling{PeriodInsts: 10_000, UnitInsts: 500, WarmupInsts: 1_000}

	var rr RunResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", req, &rr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if rr.Hash != req.Normalized().Hash() {
		t.Errorf("served hash %s, want normalized %s", rr.Hash, req.Normalized().Hash())
	}
	if rr.Report == nil || rr.Report.Sampled == nil {
		t.Fatalf("sampled report missing its summary: %+v", rr.Report)
	}
	if rr.Report.Sampled.Units < 2 || rr.Report.Sampled.Mean <= 0 {
		t.Errorf("degenerate sampling summary: %+v", rr.Report.Sampled)
	}

	// The sampled request must not collide with the exact keyspace.
	exact := daesim.MixRequest(daesim.Figure2(1), daesim.RunOpts{WarmupInsts: 500, MeasureInsts: 100_000})
	if rr.Hash == exact.Hash() {
		t.Error("sampled request shares the exact request's hash")
	}

	// Cache round-trip keeps the sampling summary.
	var again RunResponse
	if code := do(t, http.MethodGet, ts.URL+"/v1/runs/"+rr.Hash, nil, &again); code != http.StatusOK {
		t.Fatalf("GET by hash status %d", code)
	}
	if !again.Cached || again.Report.Sampled == nil || again.Report.Sampled.Units != rr.Report.Sampled.Units {
		t.Errorf("cache round-trip lost the sampling summary: %+v", again.Report)
	}

	// Validation failures surface as 400s, not 500s.
	bad := req
	bad.Budget.Sampling = &daesim.Sampling{PeriodInsts: 500, UnitInsts: 400, WarmupInsts: 200}
	var er ErrorResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", bad, &er); code != http.StatusBadRequest {
		t.Fatalf("invalid sampling: status %d, want 400", code)
	}
	stray := daesim.MixRequest(daesim.Figure2(1), daesim.RunOpts{WarmupInsts: 500, MeasureInsts: 2_000})
	stray.Budget.Sampling = &daesim.Sampling{PeriodInsts: 1_000, UnitInsts: 100, WarmupInsts: 100}
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", stray, &er); code != http.StatusBadRequest {
		t.Fatalf("stray sampling outside sampled mode: status %d, want 400", code)
	}
}

// TestRunEndpointSpeculationRequest: the speculation knobs ride the
// request JSON unchanged — the served report carries the new counters,
// the hash forks from the plain machine, and bad knobs are 400s.
func TestRunEndpointSpeculationRequest(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	m := daesim.Figure2(2).WithSpeculation(
		daesim.Speculation{SpecLoadFrac: 0.5, MisspecProb: 0.2, LoDEvery: 300})
	req := daesim.MixRequest(m, tinyOpts())

	var rr RunResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", req, &rr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if rr.Hash != req.Hash() {
		t.Errorf("served hash %s, want %s", rr.Hash, req.Hash())
	}
	if rr.Hash == daesim.MixRequest(daesim.Figure2(2), tinyOpts()).Hash() {
		t.Error("speculative request shares the plain machine's hash")
	}
	if rr.Report == nil || rr.Report.SpeculativeLoads == 0 {
		t.Fatalf("report lost the speculation counters: %+v", rr.Report)
	}

	bad := daesim.MixRequest(daesim.Figure2(2).WithSpeculation(
		daesim.Speculation{SpecLoadFrac: 1.5}), tinyOpts())
	var er ErrorResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", bad, &er); code != http.StatusBadRequest {
		t.Fatalf("invalid speculation: status %d, want 400", code)
	}
}

// TestRunEndpointTraceRequest: a trace workload round-trips through the
// HTTP surface and reproduces the generator run it was exported from.
func TestRunEndpointTraceRequest(t *testing.T) {
	ts, eng := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	m := daesim.Figure2(2)
	b, err := daesim.BenchmarkByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tomcatv.dct")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.ExportTrace(f, b, m.TotalContexts(), 0, 10_000, ""); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	req := daesim.TraceRequest(path, "", m, tinyOpts())
	var rr RunResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", req, &rr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if rr.Report == nil || rr.Report.IPC() <= 0 {
		t.Fatalf("degenerate trace report: %+v", rr.Report)
	}
	want, err := eng.Run(context.Background(), daesim.BenchmarkRequest("tomcatv", m, tinyOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Report.IPC() != want.IPC() {
		t.Errorf("trace replay IPC %v, generator %v", rr.Report.IPC(), want.IPC())
	}

	var er ErrorResponse
	bad := daesim.TraceRequest("", "", m, tinyOpts())
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", bad, &er); code != http.StatusBadRequest {
		t.Fatalf("empty trace path: status %d, want 400", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", daesim.TraceRequest(path, "legacy", m, tinyOpts()), &er); code != http.StatusBadRequest ||
		!strings.Contains(er.Error, "dae-trace import") {
		t.Fatalf("legacy format: status %d (%q), want 400 naming dae-trace import", code, er.Error)
	}

	// A container whose loads write registers the machine lacks is an
	// error reply, not a crashed replica: the next request still runs.
	hostile, err := filepath.Abs(filepath.Join("..", "traceio", "testdata", "r64-load.dct"))
	if err != nil {
		t.Fatal(err)
	}
	er = ErrorResponse{}
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", daesim.TraceRequest(hostile, "", m, tinyOpts()), &er); code == http.StatusOK ||
		!strings.Contains(er.Error, "invalid register") {
		t.Fatalf("r64 container: status %d (%q), want an invalid-register error", code, er.Error)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/runs", req, &rr); code != http.StatusOK {
		t.Fatalf("after the hostile trace: status %d", code)
	}
}
