// Command dae-serve exposes the simulator as an HTTP JSON service over
// the shared content-addressed result cache: cached results are served
// instantly, misses execute through one bounded, deduplicating Engine.
//
// Endpoints:
//
//	POST /v1/runs                execute one daesim.Request (JSON body)
//	POST /v1/sweeps              execute {"requests": [...]}; per-result errors
//	GET  /v1/runs/{hash}         serve a previously computed result by content hash
//	GET  /v1/runs/{hash}/events  stream a run's progress (SSE)
//	GET  /healthz                liveness + engine cache statistics
//
// Examples:
//
//	dae-serve -addr :8177 -cache .sweeps
//	curl -s localhost:8177/healthz
//	curl -s -X POST localhost:8177/v1/runs -d \
//	  '{"machine": <dae-sim compatible config>, "workload": {"kind":"mix"}}'
//
// A Request executed here produces a Report byte-identical to
// `dae-sim -json` with the same parameters, and the cache directory is
// interchangeable with dae-sweep's: a nightly sweep warms the cache the
// service then serves from. Pointing several replicas at one shared
// cache directory turns it into the fabric's content-addressed result
// store: any replica serves any hash, and cmd/dae-router routes requests
// across the replicas by rendezvous hashing of the Request hash (see
// DESIGN.md §8).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	daesim "repro"
	"repro/internal/serveapi"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8177", "listen address")
		cacheDir = flag.String("cache", "", "on-disk result cache directory shared with dae-sweep/dae-sim (\"\" = in-memory only)")
		workers  = flag.Int("workers", 0, "max concurrent simulations (0 = all cores)")
		timeout  = flag.Duration("timeout", 0, "wall-clock cap per run/sweep request (0 = none)")
		progress = flag.Bool("progress", false, "log per-run progress to stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, *addr, daesim.EngineOpts{Workers: *workers, CacheDir: *cacheDir}, *timeout, *progress, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dae-serve:", err)
		os.Exit(1)
	}
}

// serve runs the service until ctx is cancelled, then drains in-flight
// requests. It is main's testable body: the e2e tests call it with a
// ":0" address and receive the bound address through onReady.
func serve(ctx context.Context, addr string, opts daesim.EngineOpts, timeout time.Duration, progress bool, logw io.Writer, onReady func(net.Addr)) error {
	eng, err := daesim.NewEngine(opts)
	if err != nil {
		return err
	}
	if progress {
		events, stopWatch := eng.Watch(64)
		defer stopWatch()
		go func() {
			for p := range events {
				switch {
				case p.Event == daesim.ProgressSnapshot:
					fmt.Fprintf(logw, "dae-serve: run %s %s: %d/%d insts (cycle %d)\n",
						p.Hash[:12], p.Phase, p.Graduated, p.TargetInsts, p.TotalCycles)
				case p.Err != nil:
					fmt.Fprintf(logw, "dae-serve: FAIL %s: %v\n", p.Label, p.Err)
				case p.Cached:
					fmt.Fprintf(logw, "dae-serve: cached %s (%s)\n", p.Label, p.Hash[:12])
				default:
					fmt.Fprintf(logw, "dae-serve: done %s (%s)\n", p.Label, p.Hash[:12])
				}
			}
		}()
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "dae-serve: listening on %s\n", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr())
	}
	srv := &http.Server{
		Handler:           serveapi.NewHandler(eng, timeout, serveapi.DefaultMaxBody),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	// Graceful drain, then hard close: Close cancels the remaining
	// handlers' request contexts, which aborts their simulations.
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
