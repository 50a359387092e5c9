// Command dae-router is the fabric front end: it routes simulation
// requests across a set of dae-serve replicas by rendezvous hashing of
// the Request content hash, so every hash has one owning replica
// (maximizing each replica's in-memory cache hit rate) and adding or
// removing a replica remaps only that replica's share of the key space.
//
// Endpoints (same shapes as dae-serve — clients cannot tell them apart):
//
//	POST /v1/runs                route one daesim.Request to its owner
//	POST /v1/sweeps              scatter {"requests": [...]} across the fabric
//	GET  /v1/runs/{hash}         serve a result from the shared store or owner
//	GET  /v1/runs/{hash}/events  proxy the owner's SSE progress stream
//	GET  /healthz                router liveness: replica states + queue depth
//
// Examples:
//
//	dae-serve -addr :8181 -cache .fabric &
//	dae-serve -addr :8182 -cache .fabric &
//	dae-router -addr :8180 -store .fabric \
//	  -replicas http://127.0.0.1:8181,http://127.0.0.1:8182
//
// Responses relayed from replicas are byte-identical to hitting the
// replica directly — and therefore to `dae-sim -json` with the same
// parameters. A dead replica is detected on the first failed forward,
// its in-flight work retried against the next replica of the hash's
// ranking (collapsed by single-flight so a retry stampede recomputes
// each hash exactly once), and recovery is picked up by background
// health probes. Admission is bounded: past -max-active concurrent
// requests and -max-queue waiters (interactive runs admitted ahead of
// sweeps), clients get 429 + "Retry-After: 1". See DESIGN.md §8.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/fabric"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8180", "listen address")
		replicaList = flag.String("replicas", "", "comma-separated dae-serve base URLs (required)")
		storeDir    = flag.String("store", "", "shared result-store directory (the replicas' -cache dir); lets the router answer cached hashes itself (\"\" = always forward)")
		healthEvery = flag.Duration("health-every", time.Second, "replica health-probe interval")
		maxActive   = flag.Int("max-active", 64, "max concurrently admitted requests")
		maxQueue    = flag.Int("max-queue", 256, "max queued requests beyond -max-active before 429")
	)
	flag.Parse()

	var replicas []string
	for _, r := range strings.Split(*replicaList, ",") {
		if r = strings.TrimSpace(r); r != "" {
			replicas = append(replicas, r)
		}
	}
	if len(replicas) == 0 {
		fmt.Fprintln(os.Stderr, "dae-router: -replicas is required (comma-separated dae-serve URLs)")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := fabric.Config{
		Replicas:    replicas,
		HealthEvery: *healthEvery,
		MaxActive:   *maxActive,
		MaxQueue:    *maxQueue,
		StoreDir:    *storeDir,
	}
	if err := serve(ctx, *addr, cfg, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dae-router:", err)
		os.Exit(1)
	}
}

// serve runs the router until ctx is cancelled, then drains: the
// admission queue sheds its waiters (503, clients retry elsewhere) while
// admitted requests finish. It is main's testable body: e2e tests call
// it with a ":0" address and receive the bound address through onReady.
func serve(ctx context.Context, addr string, cfg fabric.Config, logw io.Writer, onReady func(net.Addr)) error {
	rt, err := fabric.NewRouter(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "dae-router: listening on %s (%d replicas)\n", ln.Addr(), len(cfg.Replicas))
	if onReady != nil {
		onReady(ln.Addr())
	}
	srv := &http.Server{
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	rt.Close() // shed the queue before the listener stops accepting
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
