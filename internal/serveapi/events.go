package serveapi

import (
	"encoding/json"
	"fmt"
	"net/http"

	daesim "repro"
)

// handleEvents streams one run's progress over HTTP:
// GET /v1/runs/{hash}/events. The stream carries the Engine's Watch
// events for that hash — periodic "snapshot" events while the run
// executes, then exactly one terminal "done" event — and ends after the
// done event. A hash that is already cached yields an immediate done
// event, so clients can always follow a POST with an events GET without
// racing the run's completion.
//
// The wire format is Server-Sent Events: "event:" is the Progress kind,
// "data:" its JSON. The stream is exempt from the server's per-run
// timeout — it follows the watched run, which is capped by its own
// executing request.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	// Subscribe before the cache check: a run finishing between the two
	// would otherwise slip through both (not yet cached at the lookup,
	// done event published before the subscription).
	events, stop := s.eng.WatchHash(hash, 256)
	defer stop()
	if _, cached := s.eng.Lookup(hash); cached {
		writeEvent(w, daesim.Progress{Event: daesim.ProgressDone, Hash: hash, Cached: true})
		flusher.Flush()
		return
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case p, ok := <-events:
			if !ok {
				return // WatchHash closes the channel after the done event
			}
			writeEvent(w, p)
			flusher.Flush()
		}
	}
}

// writeEvent emits one Progress as a Server-Sent Event.
func writeEvent(w http.ResponseWriter, p daesim.Progress) {
	raw, err := json.Marshal(p)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", p.Event, raw)
}
