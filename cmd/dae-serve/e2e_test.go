package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	daesim "repro"
	"repro/internal/serveapi"
)

// TestServeEndToEnd boots the real server loop (listener, engine, HTTP
// stack, graceful shutdown) on a random port and drives it with
// concurrent clients — run under -race in CI, this is the service's
// thread-safety gate. It also asserts the dedup contract at the HTTP
// level: N concurrent identical POSTs simulate once.
func TestServeEndToEnd(t *testing.T) {
	eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: 2, CacheDir: t.TempDir()})
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
	go func() { done <- serve(ctx, ln, eng, 0, true, io.Discard) }()
	base := "http://" + ln.Addr().String()

	req := daesim.MixRequest(daesim.Figure2(2), daesim.RunOpts{WarmupInsts: 2_000, MeasureInsts: 8_000})
	raw, _ := json.Marshal(req)

	// Concurrent identical requests from independent clients.
	const clients = 6
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// Every client got a result; modulo the cached flag they are
	// identical (exactly one response carries cached=false).
	fresh := 0
	var reference map[string]any
	for i, b := range bodies {
		if len(b) == 0 {
			t.Fatalf("client %d got no body", i)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if m["cached"] == false {
			fresh++
		}
		rep := m["report"]
		if reference == nil {
			reference = rep.(map[string]any)
		} else if got, _ := json.Marshal(rep); string(got) != string(mustMarshal(t, reference)) {
			t.Errorf("client %d received a different report", i)
		}
	}
	if fresh != 1 {
		t.Errorf("%d fresh executions for %d concurrent identical requests, want 1", fresh, clients)
	}

	// The engine behind the server confirms: one simulation.
	var health serveapi.HealthResponse
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.Stats.Simulated != 1 {
		t.Errorf("server simulated %d times for %d identical requests", health.Stats.Simulated, clients)
	}

	// A second sweep over the same point plus a new one: the first is a
	// cache hit, and the per-request results come back in order.
	sweep := serveapi.SweepRequest{Requests: []daesim.Request{
		req,
		daesim.BenchmarkRequest("swim", daesim.Figure2(1), daesim.RunOpts{WarmupInsts: 500, MeasureInsts: 2_000}),
	}}
	sraw, _ := json.Marshal(sweep)
	resp, err = http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(sraw))
	if err != nil {
		t.Fatal(err)
	}
	var sres serveapi.SweepResponse
	json.NewDecoder(resp.Body).Decode(&sres)
	resp.Body.Close()
	if len(sres.Results) != 2 || sres.Failed != 0 {
		t.Fatalf("sweep results: %+v", sres)
	}
	if !sres.Results[0].Cached {
		t.Error("previously computed point not served from cache in the sweep")
	}

	// The events stream is reachable end-to-end: the computed hash yields
	// an immediate SSE done event over the real server stack.
	sresp, err := http.Get(base + "/v1/runs/" + req.Hash() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sbody, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events Content-Type %q", ct)
	}
	if !bytes.Contains(sbody, []byte("event: done")) || !bytes.Contains(sbody, []byte(req.Hash())) {
		t.Errorf("events stream missing done event for the run: %q", sbody)
	}

	// Graceful shutdown: cancel the serve context and the loop returns
	// cleanly.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeRefusesBusyPort covers the operational error path: a second
// server on the same port exits 1 with the listener's error.
func TestServeRefusesBusyPort(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stderr strings.Builder
	if code := run([]string{"-addr", ln.Addr().String()}, &stderr); code != 1 ||
		strings.Count(stderr.String(), "dae-serve: listen tcp "+ln.Addr().String()) != 1 {
		t.Errorf("exit %d, stderr %q; want exit 1 and one listen error", code, stderr.String())
	}
}

// TestCommandLineErrors: a bad flag exits 2 with the flag package's one
// message; -h exits 0.
func TestCommandLineErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"-workers", "many"}, 2, "invalid value \"many\" for flag -workers"},
		{[]string{"-h"}, 0, "Usage of dae-serve"},
	}
	for _, c := range cases {
		var stderr strings.Builder
		if code := run(c.args, &stderr); code != c.code || strings.Count(stderr.String(), c.want) != 1 {
			t.Errorf("%v: exit %d, stderr %q; want exit %d and one %q", c.args, code, stderr.String(), c.code, c.want)
		}
	}
}
