// Package serveapi is the HTTP surface of the simulation service: the
// JSON API cmd/dae-serve mounts over one daesim.Engine. It lives in its
// own package (rather than in cmd/dae-serve) because the fabric front
// end — cmd/dae-router — speaks, proxies and reassembles exactly these
// request/response shapes, and the fabric's in-process end-to-end tests
// boot real replicas from this handler.
//
// Endpoints:
//
//	POST /v1/runs                 execute one daesim.Request (JSON body)
//	POST /v1/sweeps               execute {"requests": [...]}; per-result errors
//	GET  /v1/runs/{hash}          serve a previously computed result by hash
//	GET  /v1/runs/{hash}/events   stream the run's progress (SSE)
//	GET  /healthz                 liveness + engine cache statistics
package serveapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	daesim "repro"
)

// API limits.
const (
	// DefaultMaxBody bounds request bodies (a Request is a few KB; custom
	// workload models stay well under this).
	DefaultMaxBody = 8 << 20
	// MaxSweepRequests bounds one sweep submission.
	MaxSweepRequests = 4096
)

// EmptySweepError is the 400 message for a sweep naming no runs. The
// router rejects with the same bytes a replica would.
const EmptySweepError = "empty sweep: requests must name at least one run"

// SweepTooLargeError is the 400 message for an oversized sweep.
func SweepTooLargeError(n int) string {
	return fmt.Sprintf("sweep of %d requests exceeds the %d-request limit", n, MaxSweepRequests)
}

// server wires a shared Engine into the HTTP API. All endpoints speak
// JSON; simulation results are served from the Engine's content-addressed
// cache when present and computed through its bounded worker pool on a
// miss.
type server struct {
	eng *daesim.Engine
	// timeout caps one run's wall time (0 = none). Sweeps are capped as
	// a whole. Event streams are exempt: they follow the watched run.
	timeout time.Duration
	maxBody int64
}

// RunResponse is one executed (or failed) request.
type RunResponse struct {
	// Label echoes the request's display name.
	Label string `json:"label,omitempty"`
	// Hash is the request's content hash; GET /v1/runs/{hash} serves the
	// same result from cache from now on.
	Hash string `json:"hash,omitempty"`
	// Cached reports whether the result was served without simulating
	// (cache tier or deduplicated in-flight run).
	Cached bool `json:"cached"`
	// Report is the simulation result (absent on error).
	Report *daesim.Report `json:"report,omitempty"`
	// Error is the failure, if any.
	Error string `json:"error,omitempty"`
}

// SweepRequest is the POST /v1/sweeps body.
type SweepRequest struct {
	Requests []daesim.Request `json:"requests"`
}

// SweepResponse is the POST /v1/sweeps reply: one result per request, in
// request order.
type SweepResponse struct {
	Results []RunResponse `json:"results"`
	// Failed counts results carrying an error.
	Failed int `json:"failed"`
}

// HealthResponse is the GET /healthz reply.
type HealthResponse struct {
	OK bool `json:"ok"`
	// Stats snapshots the Engine's lifetime counters.
	Stats daesim.Stats `json:"stats"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// NewHandler builds the HTTP API over eng.
func NewHandler(eng *daesim.Engine, timeout time.Duration, maxBody int64) http.Handler {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	s := &server{eng: eng, timeout: timeout, maxBody: maxBody}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleRun)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("GET /v1/runs/{hash}", s.handleGet)
	mux.HandleFunc("GET /v1/runs/{hash}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// WriteJSON writes v with the same encoder settings dae-sim -json uses,
// so the "report" object inside every response is byte-identical to the
// CLI's output for the same Request.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // best effort: the client may already be gone
}

// StatusFor maps an execution error to an HTTP status via the package's
// typed sentinels.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, daesim.ErrInvalidRequest),
		errors.Is(err, daesim.ErrUnknownBenchmark),
		errors.Is(err, daesim.ErrInvalidConfig):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is written into the void but
		// keeps access logs honest (nginx's 499 convention).
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// DecodeBody reads r's body, at most limit bytes, and strictly decodes it
// into v: unknown fields are errors. It returns the raw bytes for
// verbatim forwarding. Its error is the "decode body: ..." message every
// endpoint, replica or router, answers a bad body with (400).
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) ([]byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	}
	if err != nil {
		return nil, fmt.Errorf("decode body: %w", err)
	}
	return raw, nil
}

// runCtx applies the per-run wall cap to the request context.
func (s *server) runCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// handleRun executes one Request: POST /v1/runs with a daesim.Request
// body. Cached results return instantly with "cached": true.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req daesim.Request
	if _, err := DecodeBody(w, r, s.maxBody, &req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	ctx, cancel := s.runCtx(r)
	defer cancel()
	// RunBatch rather than Run for the per-result Cached flag.
	results, _ := s.eng.RunBatch(ctx, []daesim.Request{req})
	res := results[0]
	if res.Err != nil {
		WriteJSON(w, StatusFor(res.Err), ErrorResponse{Error: res.Err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, RunResponse{
		Label:  res.Request.Label,
		Hash:   res.Hash,
		Cached: res.Cached,
		Report: &res.Report,
	})
}

// handleSweep executes a batch: POST /v1/sweeps with {"requests": [...]}.
// Individual failures never fail the sweep; each result carries its own
// error and the reply is always 200 once the body parses.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if _, err := DecodeBody(w, r, s.maxBody, &req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if len(req.Requests) == 0 {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: EmptySweepError})
		return
	}
	if len(req.Requests) > MaxSweepRequests {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: SweepTooLargeError(len(req.Requests))})
		return
	}
	ctx, cancel := s.runCtx(r)
	defer cancel()
	results, _ := s.eng.RunBatch(ctx, req.Requests)
	resp := SweepResponse{Results: make([]RunResponse, len(results))}
	for i, res := range results {
		rr := RunResponse{Label: res.Request.Label, Hash: res.Hash, Cached: res.Cached}
		if res.Err != nil {
			rr.Error = res.Err.Error()
			resp.Failed++
		} else {
			rep := res.Report
			rr.Report = &rep
		}
		resp.Results[i] = rr
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleGet serves a previously computed result by content hash:
// GET /v1/runs/{hash}. It never simulates; unknown hashes are 404.
func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rep, ok := s.eng.Lookup(hash)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{
			Error: fmt.Sprintf("no cached result for hash %q (POST the request to /v1/runs to compute it)", hash)})
		return
	}
	WriteJSON(w, http.StatusOK, RunResponse{Hash: hash, Cached: true, Report: &rep})
}

// handleHealth reports liveness and the Engine's counters.
func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, HealthResponse{OK: true, Stats: s.eng.Stats()})
}

// Serve is the server lifecycle dae-serve and dae-router share: it
// serves h on ln until ctx is cancelled, then calls beforeShutdown (if
// non-nil), drains in-flight requests for up to 5 s, and
// closes the rest, which cancels their request contexts. It returns nil
// after a shutdown and the serving error if the server failed first.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, beforeShutdown func()) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	if beforeShutdown != nil {
		beforeShutdown()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
