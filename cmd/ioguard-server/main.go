// Command ioguard-server exposes the slot-accurate simulator as an
// HTTP service: trial requests are coalesced by a batcher onto the
// deterministic worker pool (POST /v1/trials streams results back as
// NDJSON), sweeps run asynchronously through an in-memory job store
// (POST /v1/sweeps, then GET /v1/sweeps/{id}), and admission control
// answers 429 + Retry-After when the bounded queues are full. A batch
// is whatever trials are queued when the pool comes free (at most 64);
// no timer holds a request back, so -queue-depth is the batcher's only
// setting.
//
// Usage:
//
//	ioguard-server -addr 127.0.0.1:8080
//	ioguard-server -queue-depth 4096
//	ioguard-server -workers 8 -metrics stream
//
// A server-executed trial is byte-identical to ioguard-sim at the
// same request parameters: a request body is the experiments.Request
// that ioguard-sim's flags fill, both resolve it through
// experiments.Request.Resolve, and the streamed response carries the
// trial's rendered metrics block verbatim.
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener stops,
// streaming handlers finish, and both execution paths drain — every
// admitted trial and queued sweep completes before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ioguard/internal/cliflags"
	"ioguard/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		queueDepth = flag.Int("queue-depth", 1024, "admission bound on queued trials (beyond it: 429)")
		maxJobs    = flag.Int("max-jobs", 64, "admission bound on queued sweep jobs (beyond it: 429)")
		drainWait  = flag.Duration("drain-wait", 30*time.Second, "graceful-shutdown deadline for in-flight HTTP streams")
	)
	exec := cliflags.RegisterDefault()
	flag.Parse()
	r, err := exec.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ioguard-server:", err)
		os.Exit(1)
	}

	srv := server.New(server.Config{
		Batcher: server.BatcherConfig{
			QueueDepth: *queueDepth,
			Workers:    r.Workers,
		},
		Jobs: server.JobStoreConfig{
			MaxJobs: *maxJobs,
			Workers: r.Workers,
		},
		DefaultMetrics: r.Metrics.String(),
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("ioguard-server: shutting down (draining in-flight work)")
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("ioguard-server: shutdown: %v", err)
		}
		close(idle)
	}()

	log.Printf("ioguard-server: listening on %s (workers=%d queue-depth=%d)",
		*addr, r.Workers, *queueDepth)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "ioguard-server:", err)
		os.Exit(1)
	}
	<-idle
	// Listener is closed and streaming handlers have returned; now
	// drain the execution paths so no admitted work is lost.
	srv.Close()
	log.Printf("ioguard-server: drained, bye")
}
