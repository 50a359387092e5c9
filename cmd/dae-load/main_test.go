package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	daesim "repro"
	"repro/internal/fabric"
	"repro/internal/serveapi"
)

// TestHistogramPercentiles: percentiles are exact samples by the
// nearest-rank rule, however far the tail reaches.
func TestHistogramPercentiles(t *testing.T) {
	var us []int64
	for v := int64(100); v >= 1; v-- { // unsorted on purpose
		us = append(us, v)
	}
	s := summarize(us)
	if s.Count != 100 || s.MaxUs != 100 || s.MeanUs != 50 {
		t.Fatalf("count=%d max=%d mean=%d", s.Count, s.MaxUs, s.MeanUs)
	}
	if s.P50Us != 50 || s.P90Us != 90 || s.P99Us != 99 {
		t.Errorf("p50/p90/p99 = %d/%d/%d, want 50/90/99", s.P50Us, s.P90Us, s.P99Us)
	}

	// Two 5 s outliers hold ranks 99 and 100 of 100: p99 is one of them.
	us = us[:0]
	for i := 0; i < 98; i++ {
		us = append(us, 10)
	}
	us = append(us, 5_000_000, 5_000_000)
	s = summarize(us)
	if s.P99Us != 5_000_000 || s.P50Us != 10 || s.P99Ms != 5000 {
		t.Errorf("p50=%d p99=%d (%.1fms), want 10 and 5000000", s.P50Us, s.P99Us, s.P99Ms)
	}

	// One sample is every percentile; none is an empty summary.
	if s := summarize([]int64{7}); s.P50Us != 7 || s.P99Us != 7 || s.MaxUs != 7 {
		t.Errorf("single sample: %+v", s)
	}
	if s := summarize(nil); s != (latencySummary{}) {
		t.Errorf("no samples: %+v", s)
	}
}

// TestBuildPlanDeterministic: the same seed yields a byte-identical
// schedule; a different seed does not.
func TestBuildPlanDeterministic(t *testing.T) {
	cfg := loadConfig{Requests: 50, Seed: 7}
	w1, s1, err := buildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, s2, _ := buildPlan(cfg)
	if len(s1) != cfg.Requests || len(w1) != warmPool {
		t.Fatalf("plan sizes: warm=%d schedule=%d", len(w1), len(s1))
	}
	for i := range s1 {
		if s1[i].class != s2[i].class || !bytes.Equal(s1[i].body, s2[i].body) {
			t.Fatalf("schedule diverges at %d with identical seeds", i)
		}
	}
	for i := range w1 {
		if !bytes.Equal(w1[i].body, w2[i].body) {
			t.Fatalf("warm pool diverges at %d", i)
		}
	}
	cfg.Seed = 8
	_, s3, _ := buildPlan(cfg)
	same := true
	for i := range s1 {
		if s1[i].class != s3[i].class || !bytes.Equal(s1[i].body, s3[i].body) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

// runLoad runs dae-load with args and returns its exit code and streams.
func runLoad(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestCommandLineErrors: a bad command line exits 2 with one message and
// no report; -h exits 0.
func TestCommandLineErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-mode", "open"}, 2, "flag provided but not defined: -mode"},
		{[]string{"-requests", "10"}, 2, "-target is required"},
		{[]string{"-h"}, 0, "Usage of dae-load"},
	}
	for _, c := range cases {
		code, stdout, stderr := runLoad(c.args...)
		if code != c.code || stdout != "" || strings.Count(stderr, c.want) != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d and one %q", c.args, code, stdout, stderr, c.code, c.want)
		}
	}
}

// TestIssueClassifiesOutcomes: backpressure with Retry-After is shed,
// every other refusal or malformed reply is an error, and cache hits are
// counted per run and per sweep result.
func TestIssueClassifiesOutcomes(t *testing.T) {
	runOp := op{class: classCached, path: "/v1/runs", body: []byte("{}")}
	sweepOp := op{class: classSweep, path: "/v1/sweeps", body: []byte("{}")}
	cases := []struct {
		name       string
		op         op
		status     int
		retryAfter string
		body       string
		cached     int
		shed       bool
		wantErr    string
	}{
		{"429 with Retry-After", runOp, http.StatusTooManyRequests, "1", "busy", 0, true, ""},
		{"503 with Retry-After", runOp, http.StatusServiceUnavailable, "1", "draining", 0, true, ""},
		{"503 without Retry-After", runOp, http.StatusServiceUnavailable, "", "down", 0, false, "status 503"},
		{"500", sweepOp, http.StatusInternalServerError, "1", "boom", 0, false, "status 500"},
		{"run body not JSON", runOp, http.StatusOK, "", "<html>", 0, false, "malformed run response"},
		{"run body without report", runOp, http.StatusOK, "", `{"cached":true}`, 0, false, "malformed run response"},
		{"sweep body not JSON", sweepOp, http.StatusOK, "", "[", 0, false, "malformed sweep response"},
		{"sweep with a failed result", sweepOp, http.StatusOK, "",
			`{"results":[{"cached":true,"report":{}},{"error":"bad"}],"failed":1}`, 0, false, "sweep failed 1 results"},
		{"fresh run", runOp, http.StatusOK, "", `{"cached":false,"report":{}}`, 0, false, ""},
		{"cached run", runOp, http.StatusOK, "", `{"cached":true,"report":{}}`, 1, false, ""},
		{"sweep with two hits", sweepOp, http.StatusOK, "",
			`{"results":[{"cached":true,"report":{}},{"cached":false,"report":{}},{"cached":true,"report":{}}]}`, 2, false, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != c.op.path {
					t.Errorf("POST to %s, want %s", r.URL.Path, c.op.path)
				}
				if c.retryAfter != "" {
					w.Header().Set("Retry-After", c.retryAfter)
				}
				w.WriteHeader(c.status)
				io.WriteString(w, c.body)
			}))
			defer ts.Close()
			cached, shed, err := issue(context.Background(), ts.Client(), ts.URL, c.op)
			if cached != c.cached || shed != c.shed {
				t.Errorf("cached=%d shed=%v, want %d and %v", cached, shed, c.cached, c.shed)
			}
			if c.wantErr == "" && err != nil || c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
				t.Errorf("err = %v, want %q", err, c.wantErr)
			}
		})
	}
}

// TestSLOFailsWhenEveryFreshRunIsShed: an error rate of 0 over no
// completed fresh run is no evidence, so the gate refuses it.
func TestSLOFailsWhenEveryFreshRunIsShed(t *testing.T) {
	rep := &loadReport{Classes: map[string]classReport{
		classCached: {Requests: 20, CacheHits: 20, Latency: summarize([]int64{900, 1000, 1100})},
		classFresh:  {Requests: 10, Shed: 10},
	}}
	res, err := checkSLO("../../SLO.json", rep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass || len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "no completed fresh runs") {
		t.Errorf("all-shed fresh class: pass=%v violations=%q", res.Pass, res.Violations)
	}

	// One completed fresh run among the shed ones is enough to grade.
	rep.Classes[classFresh] = classReport{Requests: 10, Shed: 9, Latency: summarize([]int64{40_000})}
	if res, _ := checkSLO("../../SLO.json", rep); !res.Pass {
		t.Errorf("one completed fresh run: violations %q", res.Violations)
	}
}

// newFabric boots n replicas over one shared store and a router with
// that store, all in-process, and returns the router's base URL.
func newFabric(t *testing.T, n int) string {
	t.Helper()
	storeDir := t.TempDir()
	var bases []string
	for i := 0; i < n; i++ {
		eng, err := daesim.NewEngine(daesim.EngineOpts{CacheDir: storeDir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(serveapi.NewHandler(eng, 0, serveapi.DefaultMaxBody))
		t.Cleanup(ts.Close)
		bases = append(bases, ts.URL)
	}
	rt, err := fabric.NewRouter(fabric.Config{Replicas: bases, StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestSLOGate is the fabric's latency and error gate: three dae-serve
// handlers over one shared store behind a router, driven by dae-load's
// default plan and graded against the committed SLO.json. It fails when
// cached-run p99 or the fresh-run error rate regresses.
func TestSLOGate(t *testing.T) {
	target := newFabric(t, 3)
	code, stdout, stderr := runLoad("-target", target, "-slo", "../../SLO.json")
	if code != 0 {
		t.Fatalf("gate exit %d:\n%s", code, stderr)
	}
	var rep loadReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("report on stdout: %v\n%s", err, stdout)
	}
	cached := rep.Classes[classCached]
	t.Logf("cached p99 %.1fms over %d runs; %.0f req/s", cached.Latency.P99Ms, cached.Latency.Count, rep.Throughput)
	if rep.SLO == nil || !rep.SLO.Pass || rep.Config.Requests != 200 || rep.Config.Concurrency != 8 {
		t.Errorf("report: slo=%+v config=%+v", rep.SLO, rep.Config)
	}

	// The gate has teeth: the same run fails an impossible SLO.
	strict := filepath.Join(t.TempDir(), "strict.json")
	if err := os.WriteFile(strict, []byte(`{"cachedRunP99Ms": 0.0001, "freshRunMaxErrorRate": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := checkSLO(strict, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Error("impossible SLO passed")
	}
}

// TestLoadEndToEnd drives a two-replica in-process fabric and checks the
// accounting: every planned request is measured, none fails, and every
// cached-class request is a cache hit.
func TestLoadEndToEnd(t *testing.T) {
	cfg := loadConfig{Target: newFabric(t, 2), Requests: 30, Concurrency: 4, Seed: 1}
	rep, err := load(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for class, cr := range rep.Classes {
		total += cr.Requests
		if cr.Errors != 0 || cr.Shed != 0 || cr.Latency.Count != int64(cr.Requests) {
			t.Errorf("%s: %d requests, %d errors, %d shed, %d timed (first error: %s)",
				class, cr.Requests, cr.Errors, cr.Shed, cr.Latency.Count, cr.FirstErr)
		}
	}
	if total != cfg.Requests {
		t.Errorf("measured %d requests, want %d", total, cfg.Requests)
	}
	cached := rep.Classes[classCached]
	if cached.Requests == 0 || cached.CacheHits != cached.Requests {
		t.Errorf("cached class: %d requests, %d hits — warm pool not warm",
			cached.Requests, cached.CacheHits)
	}
	if cached.Latency.P99Us <= 0 {
		t.Errorf("cached p99 = %d", cached.Latency.P99Us)
	}
}

// TestLoadReportShape: stdout carries exactly one JSON report whose
// latency object holds the percentile fields and no bucket list.
func TestLoadReportShape(t *testing.T) {
	code, stdout, stderr := runLoad("-target", newFabric(t, 1)+"/", "-requests", "6", "-concurrency", "2", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	var decoded map[string]any
	dec := json.NewDecoder(strings.NewReader(stdout))
	if err := dec.Decode(&decoded); err != nil || dec.More() {
		t.Fatalf("stdout is not one JSON report (%v):\n%s", err, stdout)
	}
	classes, _ := decoded["classes"].(map[string]any)
	for _, class := range []string{classCached, classFresh, classSweep} {
		cr, _ := classes[class].(map[string]any)
		lat, ok := cr["latency"].(map[string]any)
		if !ok {
			t.Fatalf("no %s latency in %s", class, stdout)
		}
		for _, k := range []string{"count", "meanUs", "p50Us", "p90Us", "p99Us", "maxUs", "meanMs", "p50Ms", "p99Ms"} {
			if _, ok := lat[k]; !ok {
				t.Errorf("%s latency lacks %s", class, k)
			}
		}
		if len(lat) != 9 {
			t.Errorf("%s latency has %d fields, want 9: %v", class, len(lat), lat)
		}
	}
	if _, ok := decoded["slo"]; ok {
		t.Error("report without -slo carries an slo verdict")
	}
}
