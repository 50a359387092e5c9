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
	"os"
	"os/signal"
	"syscall"
	"time"

	daesim "repro"
	"repro/internal/serveapi"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run parses the command line and serves until SIGINT or SIGTERM. It
// returns the exit status: 2 for a bad command line, 1 when the engine
// or the listener cannot start.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("dae-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8177", "listen address")
		cacheDir = fs.String("cache", "", "on-disk result cache directory shared with dae-sweep/dae-sim (\"\" = in-memory only)")
		workers  = fs.Int("workers", 0, "max concurrent simulations (0 = all cores)")
		timeout  = fs.Duration("timeout", 0, "wall-clock cap per run/sweep request (0 = none)")
		progress = fs.Bool("progress", false, "log per-run progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: *workers, CacheDir: *cacheDir})
	var ln net.Listener
	if err == nil {
		ln, err = net.Listen("tcp", *addr)
	}
	if err == nil {
		err = serve(ctx, ln, eng, *timeout, *progress, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dae-serve:", err)
		return 1
	}
	return 0
}

// serve announces ln's address and serves eng's API on it until ctx is
// cancelled, then drains in-flight requests (serveapi.Serve).
func serve(ctx context.Context, ln net.Listener, eng *daesim.Engine, timeout time.Duration, progress bool, logw io.Writer) error {
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
	fmt.Fprintf(logw, "dae-serve: listening on %s\n", ln.Addr())
	return serveapi.Serve(ctx, ln, serveapi.NewHandler(eng, timeout, serveapi.DefaultMaxBody), nil)
}
