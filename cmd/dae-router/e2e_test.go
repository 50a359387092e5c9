package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	daesim "repro"
	"repro/internal/fabric"
	"repro/internal/serveapi"
)

// TestRouterServeEndToEnd boots the router's serving loop (listener,
// fabric, serveapi.Serve's graceful shutdown) on a random port in front of two in-process
// replicas sharing one store, and drives the full client surface: run,
// cached run, GET by hash, sweep, events stream, health. A routed report
// must be byte-identical to a direct Engine.Run of the same Request, on
// the flat machine and on a finite shared L2; dae-sim's tests pin that
// its -request and -json print exactly that Request and that report.
func TestRouterServeEndToEnd(t *testing.T) {
	storeDir := t.TempDir()
	var replicas []string
	for i := 0; i < 2; i++ {
		eng, err := daesim.NewEngine(daesim.EngineOpts{CacheDir: storeDir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(serveapi.NewHandler(eng, 30*time.Second, serveapi.DefaultMaxBody))
		t.Cleanup(ts.Close)
		replicas = append(replicas, ts.URL)
	}

	rt, err := fabric.NewRouter(fabric.Config{Replicas: replicas, StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serveapi.Serve(ctx, ln, rt, rt.Close) }()
	base := "http://" + ln.Addr().String()

	opts := daesim.RunOpts{WarmupInsts: 2_000, MeasureInsts: 8_000}
	req := daesim.MixRequest(daesim.Figure2(2), opts)
	raw, _ := json.Marshal(req)

	// Fresh run through the fabric: the report is the direct run's.
	rr, report := postRun(t, base, raw)
	if rr.Cached || rr.Hash != req.Hash() {
		t.Fatalf("first run: cached=%v hash=%s, want a fresh run of %s", rr.Cached, rr.Hash, req.Hash())
	}
	direct := directReport(t, req)
	if !bytes.Equal(report, direct) {
		t.Fatalf("routed report differs from a direct Engine.Run:\nrouted: %s\ndirect: %s", report, direct)
	}

	// Again: now a store hit with the same report.
	rr2, report2 := postRun(t, base, raw)
	if !rr2.Cached || !bytes.Equal(report2, report) {
		t.Errorf("second run: cached=%v, report identical=%v", rr2.Cached, bytes.Equal(report2, report))
	}

	// GET by hash answers from the shared store.
	resp, err := http.Get(base + "/v1/runs/" + rr.Hash)
	if err != nil {
		t.Fatal(err)
	}
	var got serveapi.RunResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !got.Cached {
		t.Errorf("GET by hash: status %d, cached=%v, err %v", resp.StatusCode, got.Cached, err)
	}

	// A finite shared L2 takes the composable memory path: same bar.
	l2 := daesim.MixRequest(daesim.Figure2(2).WithHierarchy(64, daesim.SharedL2(65536, 8)), opts)
	l2Raw, _ := json.Marshal(l2)
	if _, report := postRun(t, base, l2Raw); !bytes.Equal(report, directReport(t, l2)) {
		t.Errorf("routed SharedL2 report differs from a direct Engine.Run:\n%s", report)
	}

	// Sweep with a fresh point.
	req2 := daesim.MixRequest(daesim.Figure2(1), opts)
	sweepRaw, _ := json.Marshal(serveapi.SweepRequest{Requests: []daesim.Request{req, req2}})
	resp, err = http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(sweepRaw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sr serveapi.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Failed != 0 || len(sr.Results) != 2 {
		t.Fatalf("sweep: failed=%d results=%d: %s", sr.Failed, len(sr.Results), body)
	}

	// Events stream for the cached hash, proxied through the router.
	resp, err = http.Get(base + "/v1/runs/" + rr.Hash + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Errorf("events Content-Type = %q", ct)
	}
	if !strings.Contains(string(stream), "event: done") || !strings.Contains(string(stream), rr.Hash) {
		t.Errorf("no done event for %s: %s", rr.Hash, stream)
	}

	// Router health reports both replicas alive.
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var h fabric.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || len(h.Replicas) != 2 {
		t.Errorf("health: %s", body)
	}

	// Graceful shutdown.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not shut down")
	}
}

// postRun POSTs a Request body to base's /v1/runs and returns the
// response and its report as compact JSON.
func postRun(t *testing.T, base string, body []byte) (serveapi.RunResponse, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d: %s", resp.StatusCode, raw)
	}
	var rr serveapi.RunResponse
	var wire struct{ Report json.RawMessage }
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &wire); err != nil || rr.Report == nil {
		t.Fatalf("run response without a report (%v): %s", err, raw)
	}
	var report bytes.Buffer
	if err := json.Compact(&report, wire.Report); err != nil {
		t.Fatal(err)
	}
	return rr, report.Bytes()
}

// directReport runs req on a fresh Engine and returns its report as
// compact JSON.
func directReport(t *testing.T, req daesim.Request) []byte {
	t.Helper()
	eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCommandLineErrors: a bad command line exits 2 with one message,
// -h exits 0, and a router or listener that cannot start exits 1.
func TestCommandLineErrors(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	cases := []struct {
		args []string
		code int
		want string
	}{
		{nil, 2, "-replicas is required"},
		{[]string{"-replicas", " , "}, 2, "-replicas is required"},
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"-h"}, 0, "Usage of dae-router"},
		{[]string{"-replicas", "http://127.0.0.1:1,http://127.0.0.1:1/"}, 1, "duplicate replica"},
		{[]string{"-replicas", "http://127.0.0.1:1", "-addr", busy.Addr().String()}, 1, "dae-router: listen tcp"},
	}
	for _, c := range cases {
		var stderr strings.Builder
		if code := run(c.args, &stderr); code != c.code || strings.Count(stderr.String(), c.want) != 1 {
			t.Errorf("%v: exit %d, stderr %q; want exit %d and one %q", c.args, code, stderr.String(), c.code, c.want)
		}
	}
}
