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
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/serveapi"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run parses the command line and routes until SIGINT or SIGTERM. It
// returns the exit status: 2 for a bad command line, 1 when the router
// or the listener cannot start.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("dae-router", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8180", "listen address")
		replicaList = fs.String("replicas", "", "comma-separated dae-serve base URLs (required)")
		storeDir    = fs.String("store", "", "shared result-store directory (the replicas' -cache dir); lets the router answer cached hashes itself (\"\" = always forward)")
		healthEvery = fs.Duration("health-every", time.Second, "replica health-probe interval")
		maxActive   = fs.Int("max-active", 64, "max concurrently admitted requests")
		maxQueue    = fs.Int("max-queue", 256, "max queued requests beyond -max-active before 429")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var replicas []string
	for _, r := range strings.Split(*replicaList, ",") {
		if r = strings.TrimSpace(r); r != "" {
			replicas = append(replicas, r)
		}
	}
	if len(replicas) == 0 {
		fmt.Fprintln(stderr, "dae-router: -replicas is required (comma-separated dae-serve URLs)")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt, err := fabric.NewRouter(fabric.Config{
		Replicas:    replicas,
		HealthEvery: *healthEvery,
		MaxActive:   *maxActive,
		MaxQueue:    *maxQueue,
		StoreDir:    *storeDir,
	})
	if err == nil {
		defer rt.Close()
		var ln net.Listener
		if ln, err = net.Listen("tcp", *addr); err == nil {
			fmt.Fprintf(stderr, "dae-router: listening on %s (%d replicas)\n", ln.Addr(), len(replicas))
			// Shed the admission queue's waiters (503, clients retry
			// elsewhere) before the listener stops; admitted requests finish.
			err = serveapi.Serve(ctx, ln, rt, rt.Close)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "dae-router:", err)
		return 1
	}
	return 0
}
