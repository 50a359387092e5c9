package serveapi

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	daesim "repro"
)

// collectSSE reads a complete SSE stream into (event, data) pairs.
func collectSSE(t *testing.T, body *bufio.Scanner) [][2]string {
	t.Helper()
	var events [][2]string
	var ev string
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events = append(events, [2]string{ev, strings.TrimPrefix(line, "data: ")})
		}
	}
	return events
}

// TestEventsStreamFreshRun: a client watching a fresh run's hash sees
// in-run snapshots followed by exactly one done event, then the stream
// ends. The snapshot cadence follows the run's budget, so a tiny-budget
// run still emits snapshots.
func TestEventsStreamFreshRun(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	req := daesim.MixRequest(daesim.Figure2(1), tinyOpts())

	// Open the stream first, then trigger the run: the subscription must
	// observe the whole lifecycle.
	streamDone := make(chan [][2]string, 1)
	streamReady := make(chan struct{})
	go func() {
		hreq, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+req.Hash()+"/events", nil)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Error(err)
			close(streamReady)
			streamDone <- nil
			return
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Errorf("Content-Type %q, want text/event-stream", ct)
		}
		close(streamReady)
		streamDone <- collectSSE(t, bufio.NewScanner(resp.Body))
	}()
	<-streamReady
	var rr RunResponse
	if code := do(t, "POST", ts.URL+"/v1/runs", req, &rr); code != 200 {
		t.Fatalf("POST status %d", code)
	}

	select {
	case events := <-streamDone:
		if len(events) == 0 {
			t.Fatal("empty event stream")
		}
		var snapshots, midRun, done int
		for _, e := range events {
			var p daesim.Progress
			if err := json.Unmarshal([]byte(e[1]), &p); err != nil {
				t.Fatalf("bad event data %q: %v", e[1], err)
			}
			if p.Hash != req.Hash() {
				t.Errorf("event for hash %q leaked into the stream", p.Hash)
			}
			switch e[0] {
			case "snapshot":
				snapshots++
				if p.Graduated < p.TargetInsts {
					midRun++
				}
			case "done":
				done++
				if p.Error != "" {
					t.Errorf("done event carries error %q", p.Error)
				}
			}
		}
		if midRun == 0 || done != 1 {
			t.Errorf("stream had %d snapshots (%d mid-window) and %d done events, want mid-window snapshots and 1", snapshots, midRun, done)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream never ended after the run completed")
	}
}

// TestEventsCachedHashImmediateDone: a hash that is already cached
// yields one immediate done event and the stream closes — this is what
// makes "POST, then GET events" race-free for clients and for the
// router's end-to-end test.
func TestEventsCachedHashImmediateDone(t *testing.T) {
	ts, _ := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	req := daesim.BenchmarkRequest("swim", daesim.Figure2(1), tinyOpts())
	if code := do(t, "POST", ts.URL+"/v1/runs", req, nil); code != 200 {
		t.Fatalf("POST status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + req.Hash() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := collectSSE(t, bufio.NewScanner(resp.Body))
	if len(events) != 1 || events[0][0] != "done" {
		t.Fatalf("events %v, want a single immediate done", events)
	}
	var p daesim.Progress
	if err := json.Unmarshal([]byte(events[0][1]), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Cached || p.Hash != req.Hash() {
		t.Errorf("done event %+v, want cached=true for this hash", p)
	}
}

// TestEventsClientDisconnect: a stream for a hash nobody runs holds
// open, and a client disconnect tears it down without wedging the
// server.
func TestEventsClientDisconnect(t *testing.T) {
	ts, eng := newTestServer(t, daesim.EngineOpts{Workers: 1}, 0)
	hreq, _ := http.NewRequest("GET", ts.URL+"/v1/runs/deadbeef/events", nil)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	// No events will ever arrive; drop the connection.
	resp.Body.Close()
	// The server keeps serving.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var health HealthResponse
		if code := do(t, "GET", ts.URL+"/healthz", nil, &health); code == 200 && health.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server unhealthy after events-client disconnect")
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = eng
}
