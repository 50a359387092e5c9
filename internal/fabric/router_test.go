package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	daesim "repro"
	"repro/internal/serveapi"
)

// tinyOpts keeps fabric-test simulations in the millisecond range.
func tinyOpts() daesim.RunOpts {
	return daesim.RunOpts{WarmupInsts: 500, MeasureInsts: 2_000}
}

// replicaStack is one in-process dae-serve replica: a real Engine behind
// the real serveapi handler.
type replicaStack struct {
	eng *daesim.Engine
	ts  *httptest.Server
}

// newReplica boots a replica mounted on the shared store directory.
func newReplica(t *testing.T, storeDir string) *replicaStack {
	t.Helper()
	eng, err := daesim.NewEngine(daesim.EngineOpts{CacheDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serveapi.NewHandler(eng, 30*time.Second, serveapi.DefaultMaxBody))
	t.Cleanup(ts.Close)
	return &replicaStack{eng: eng, ts: ts}
}

// newFabric boots n replicas over one shared store plus a router in
// front, returning the router's test server too.
func newFabric(t *testing.T, n int, cfg Config) (*Router, *httptest.Server, []*replicaStack) {
	t.Helper()
	storeDir := cfg.StoreDir
	if storeDir == "" {
		storeDir = t.TempDir()
	}
	replicas := make([]*replicaStack, n)
	for i := range replicas {
		replicas[i] = newReplica(t, storeDir)
		cfg.Replicas = append(cfg.Replicas, replicas[i].ts.URL)
	}
	cfg.StoreDir = storeDir
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts, replicas
}

// post issues one JSON POST and returns status plus raw body bytes.
// Failures report via t.Error (not Fatal) so the helper is safe from
// spawned goroutines; callers check the returned status.
func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	return resp.StatusCode, b
}

// get issues one GET and returns status plus raw body bytes.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	return resp.StatusCode, b
}

// TestRouterByteIdentity: the acceptance bar — a run POSTed through the
// router (≥2 replicas) returns bytes identical to the same run against
// a standalone dae-serve handler, on both the fresh and the cached path,
// for single runs, sweeps, and GET-by-hash.
func TestRouterByteIdentity(t *testing.T) {
	_, fabricTS, _ := newFabric(t, 2, Config{})
	standalone := newReplica(t, t.TempDir())

	req := daesim.MixRequest(daesim.Figure2(1), tinyOpts())
	req.Label = "identity"

	// Fresh path: both stacks simulate from scratch; determinism makes
	// the reports — and therefore the whole envelope — byte-equal.
	st1, fresh := post(t, fabricTS.URL+"/v1/runs", req)
	st2, want := post(t, standalone.ts.URL+"/v1/runs", req)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("fresh statuses: router=%d standalone=%d (%s)", st1, st2, fresh)
	}
	if !bytes.Equal(fresh, want) {
		t.Errorf("fresh run through router differs from standalone:\nrouter:     %s\nstandalone: %s", fresh, want)
	}
	if !strings.Contains(string(fresh), `"cached": false`) {
		t.Errorf("first run not fresh: %s", fresh)
	}

	// Cached path: the router answers from the shared store; bytes must
	// still match the standalone replica's own cache-hit response.
	st1, cached := post(t, fabricTS.URL+"/v1/runs", req)
	st2, want = post(t, standalone.ts.URL+"/v1/runs", req)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("cached statuses: router=%d standalone=%d", st1, st2)
	}
	if !bytes.Equal(cached, want) {
		t.Errorf("cached run through router differs from standalone:\nrouter:     %s\nstandalone: %s", cached, want)
	}
	if !strings.Contains(string(cached), `"cached": true`) {
		t.Errorf("second run not cached: %s", cached)
	}

	// GET-by-hash, served by the router's store mount vs the replica.
	var rr serveapi.RunResponse
	if err := json.Unmarshal(fresh, &rr); err != nil {
		t.Fatal(err)
	}
	st1, got := get(t, fabricTS.URL+"/v1/runs/"+rr.Hash)
	st2, want = get(t, standalone.ts.URL+"/v1/runs/"+rr.Hash)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("GET statuses: router=%d standalone=%d", st1, st2)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("GET through router differs from standalone:\nrouter:     %s\nstandalone: %s", got, want)
	}

	// Sweep envelope: scattered across the fabric, reassembled in order,
	// byte-identical to one replica running the whole batch. One request
	// repeats (cache hit inside the sweep), one is fresh.
	sweepReqs := []daesim.Request{req}
	fresh2 := daesim.MixRequest(daesim.Figure2(2), tinyOpts())
	fresh2.Label = "identity-2"
	sweepReqs = append(sweepReqs, fresh2)
	st1, sweepGot := post(t, fabricTS.URL+"/v1/sweeps", serveapi.SweepRequest{Requests: sweepReqs})
	st2, sweepWant := post(t, standalone.ts.URL+"/v1/sweeps", serveapi.SweepRequest{Requests: sweepReqs})
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("sweep statuses: router=%d standalone=%d", st1, st2)
	}
	if !bytes.Equal(sweepGot, sweepWant) {
		t.Errorf("sweep through router differs from standalone:\nrouter:     %s\nstandalone: %s", sweepGot, sweepWant)
	}
}

// TestRouterRoutesByHash: each distinct request lands on its ring owner;
// across many requests every replica sees work and nothing is computed
// twice.
func TestRouterRoutesByHash(t *testing.T) {
	_, fabricTS, replicas := newFabric(t, 3, Config{})

	const n = 9
	hashes := make(map[string]bool)
	for i := 0; i < n; i++ {
		req := daesim.MixRequest(daesim.Figure2(1), daesim.RunOpts{
			WarmupInsts: 500, MeasureInsts: 2_000, Seed: uint64(i + 1)})
		status, body := post(t, fabricTS.URL+"/v1/runs", req)
		if status != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, status, body)
		}
		var rr serveapi.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		hashes[rr.Hash] = true
	}
	var total int64
	for i, rep := range replicas {
		s := rep.eng.Stats()
		total += s.Simulated
		t.Logf("replica %d: simulated=%d", i, s.Simulated)
	}
	if total != int64(len(hashes)) {
		t.Errorf("total simulations %d != %d unique hashes", total, len(hashes))
	}
}

// TestRouterReplicaDeathMidSweep is the race-enabled failover e2e: a
// replica is killed while a sweep is in flight and the sweep must still
// return every result (nothing lost), while the engines behind the
// surviving replicas simulate each unique request exactly once (nothing
// double-executed). The victim is a hang-until-killed fake that owns a
// known subset of the ring, so the kill deterministically lands
// mid-request.
func TestRouterReplicaDeathMidSweep(t *testing.T) {
	storeDir := t.TempDir()
	live := []*replicaStack{newReplica(t, storeDir), newReplica(t, storeDir)}

	// The victim accepts work, reports it, then hangs until killed.
	victimGotWork := make(chan struct{})
	var once sync.Once
	victimHold := make(chan struct{})
	victim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			serveapi.WriteJSON(w, http.StatusOK, serveapi.HealthResponse{OK: true})
			return
		}
		once.Do(func() { close(victimGotWork) })
		<-victimHold
	}))
	defer victim.Close()

	bases := []string{live[0].ts.URL, live[1].ts.URL, victim.URL}
	rt, err := NewRouter(Config{Replicas: bases, StoreDir: storeDir, HealthEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fabricTS := httptest.NewServer(rt)
	defer fabricTS.Close()

	// Build a sweep where the victim owns several requests. The mirror
	// ring below is the same deterministic structure the router built.
	mirror := NewRing(0)
	for _, b := range bases {
		mirror.Add(b)
	}
	var reqs []daesim.Request
	victimOwned := 0
	for seed := uint64(1); len(reqs) < 12 || victimOwned < 2; seed++ {
		if seed > 200 {
			t.Fatal("could not find victim-owned requests (ring broken?)")
		}
		req := daesim.MixRequest(daesim.Figure2(1), daesim.RunOpts{
			WarmupInsts: 500, MeasureInsts: 2_000, Seed: seed})
		req.Label = fmt.Sprintf("kill-%d", seed)
		if owner(mirror, req.Hash()) == victim.URL {
			victimOwned++
		}
		reqs = append(reqs, req)
	}
	t.Logf("sweep: %d requests, %d owned by victim", len(reqs), victimOwned)

	sweepDone := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(sweepDone)
		status, body = post(t, fabricTS.URL+"/v1/sweeps", serveapi.SweepRequest{Requests: reqs})
	}()

	// Kill the victim while it holds in-flight sweep requests. Its
	// blocked handlers must be released before Close, which waits on
	// them.
	<-victimGotWork
	victim.CloseClientConnections()
	close(victimHold)
	victim.Close()

	select {
	case <-sweepDone:
	case <-time.After(60 * time.Second):
		t.Fatal("sweep did not complete after replica death")
	}
	if status != http.StatusOK {
		t.Fatalf("sweep status %d: %s", status, body)
	}
	var resp routedSweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	// Nothing lost: every request has a report, none an error.
	if resp.Failed != 0 {
		t.Errorf("sweep failed=%d after failover: %s", resp.Failed, body)
	}
	if len(resp.Results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(resp.Results), len(reqs))
	}
	hashes := make(map[string]bool)
	for i, res := range resp.Results {
		if res.Error != "" {
			t.Errorf("result %d (%s): %s", i, res.Label, res.Error)
		}
		if len(res.Report) == 0 {
			t.Errorf("result %d (%s): no report", i, res.Label)
		}
		if res.Label != reqs[i].Label {
			t.Errorf("result %d: label %q, want %q (order lost)", i, res.Label, reqs[i].Label)
		}
		hashes[res.Hash] = true
	}
	// Nothing double-executed: the victim never simulated anything, so
	// the survivors' engines must account for each unique hash once.
	var total int64
	for _, rep := range live {
		total += rep.eng.Stats().Simulated
	}
	if total != int64(len(hashes)) {
		t.Errorf("survivors simulated %d jobs for %d unique hashes", total, len(hashes))
	}

	// The router noticed the death.
	st, hb := get(t, fabricTS.URL+"/healthz")
	if st != http.StatusOK {
		t.Fatalf("router health after failover: %d: %s", st, hb)
	}
	var h Health
	if err := json.Unmarshal(hb, &h); err != nil {
		t.Fatal(err)
	}
	deadSeen := false
	for _, r := range h.Replicas {
		if r.URL == victim.URL && !r.Alive {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Errorf("victim still marked alive in %s", hb)
	}
}

// TestRouterAdmissionControl: with one slot and one waiting spot, a
// third concurrent arrival gets 429 + Retry-After, and a draining router
// sheds with 503.
func TestRouterAdmissionControl(t *testing.T) {
	// A fake replica that hangs until released, so slots stay occupied.
	hold := make(chan struct{})
	var inFlight atomic.Int64
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			serveapi.WriteJSON(w, http.StatusOK, serveapi.HealthResponse{OK: true})
			return
		}
		inFlight.Add(1)
		<-hold
		serveapi.WriteJSON(w, http.StatusOK, serveapi.RunResponse{Hash: "deadbeef"})
	}))
	defer slow.Close()

	rt, err := NewRouter(Config{
		Replicas:   []string{slow.URL},
		MaxActive:  1,
		MaxQueue:   1,
		RetryAfter: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()
	// Declared last so it runs first: the held forwards must unblock
	// before ts.Close can drain its in-flight requests.
	defer close(hold)

	mkReq := func(seed uint64) daesim.Request {
		return daesim.MixRequest(daesim.Figure2(1), daesim.RunOpts{
			WarmupInsts: 500, MeasureInsts: 2_000, Seed: seed})
	}
	// Occupy the slot.
	go post(t, ts.URL+"/v1/runs", mkReq(1))
	waitFor(t, func() bool { return inFlight.Load() == 1 })
	// Occupy the wait room (distinct hash so single-flight can't collapse).
	go post(t, ts.URL+"/v1/runs", mkReq(2))
	waitFor(t, func() bool { _, w := rt.queue.Depth(); return w == 1 })

	// Third arrival: refused with backpressure.
	raw, _ := json.Marshal(mkReq(3))
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full fabric returned %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}

	// Drain: waiters shed with 503, new arrivals refused with 503.
	rt.queue.Drain()
	resp, err = http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining fabric returned %d, want 503", resp.StatusCode)
	}
}

// waitFor polls cond until true or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterEventsProxy: the SSE stream reaches the client through the
// router, including the cached-hash immediate-done contract.
func TestRouterEventsProxy(t *testing.T) {
	_, fabricTS, _ := newFabric(t, 2, Config{})
	req := daesim.MixRequest(daesim.Figure2(1), tinyOpts())
	status, body := post(t, fabricTS.URL+"/v1/runs", req)
	if status != http.StatusOK {
		t.Fatalf("run: %d: %s", status, body)
	}
	var rr serveapi.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fabricTS.URL + "/v1/runs/" + rr.Hash + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	stream, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stream), "event: done") {
		t.Errorf("no done event in proxied stream: %s", stream)
	}
	if !strings.Contains(string(stream), rr.Hash) {
		t.Errorf("stream missing hash %s: %s", rr.Hash, stream)
	}
}

// TestRouterStoreSurvivesTotalReplicaLoss: cached results stay servable
// through the router with every replica down.
func TestRouterStoreSurvivesTotalReplicaLoss(t *testing.T) {
	_, fabricTS, replicas := newFabric(t, 2, Config{})
	req := daesim.MixRequest(daesim.Figure2(1), tinyOpts())
	req.Label = "survivor"
	status, body := post(t, fabricTS.URL+"/v1/runs", req)
	if status != http.StatusOK {
		t.Fatalf("run: %d: %s", status, body)
	}
	var rr serveapi.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}

	for _, rep := range replicas {
		rep.ts.CloseClientConnections()
		rep.ts.Close()
	}

	// Cached POST and GET still answer from the store.
	status, body2 := post(t, fabricTS.URL+"/v1/runs", req)
	if status != http.StatusOK {
		t.Fatalf("cached run with all replicas down: %d: %s", status, body2)
	}
	if !strings.Contains(string(body2), `"cached": true`) {
		t.Errorf("expected cache hit: %s", body2)
	}
	status, _ = get(t, fabricTS.URL+"/v1/runs/"+rr.Hash)
	if status != http.StatusOK {
		t.Errorf("GET with all replicas down: %d", status)
	}

	// A fresh request, by contrast, reports the fabric as unavailable.
	fresh := daesim.MixRequest(daesim.Figure2(4), tinyOpts())
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	raw, _ := json.Marshal(fresh)
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, fabricTS.URL+"/v1/runs", bytes.NewReader(raw))
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	eb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("fresh run with all replicas down: %d, want 503: %s", resp.StatusCode, eb)
	}
}

// TestRouterSingleFlightCollapsesStampede: N concurrent identical fresh
// requests produce exactly one simulation.
func TestRouterSingleFlightCollapsesStampede(t *testing.T) {
	_, fabricTS, replicas := newFabric(t, 2, Config{})
	req := daesim.MixRequest(daesim.Figure2(1), daesim.RunOpts{
		WarmupInsts: 2_000, MeasureInsts: 20_000})

	const clients = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, b := post(t, fabricTS.URL+"/v1/runs", req)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, b)
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()

	var total int64
	for _, rep := range replicas {
		total += rep.eng.Stats().Simulated
	}
	if total != 1 {
		t.Errorf("stampede simulated %d times, want 1", total)
	}
	// Every client got a valid report for the same hash.
	var first serveapi.RunResponse
	if err := json.Unmarshal(bodies[0], &first); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < clients; i++ {
		var rr serveapi.RunResponse
		if err := json.Unmarshal(bodies[i], &rr); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if rr.Hash != first.Hash || rr.Report == nil {
			t.Errorf("client %d: hash %q report %v", i, rr.Hash, rr.Report != nil)
		}
	}
}
