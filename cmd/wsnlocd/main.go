// Command wsnlocd serves localization as a long-running service: it accepts
// alg.Spec and sweep-spec JSON over HTTP, executes them on one shared
// bounded worker pool, and memoizes results content-addressed by canonical
// spec hash — identical specs from different clients return byte-identical
// cached bytes instantly.
//
// Usage:
//
//	wsnlocd -addr :8080                          # serve the API + ops plane
//	wsnlocd -addr :8080 -workers 8 -queue 128    # size the execution plane
//	wsnlocd -addr :8080 -cache results/          # persist sweep cells across restarts
//
//	curl -s localhost:8080/v1/algorithms
//	curl -s -X POST localhost:8080/v1/solve -d '{"scenario":{"n":50},"algorithm":"centroid"}'
//	curl -s -X POST localhost:8080/v1/sweep -d @sweep.json
//
// With -cache set, sweeps can be sharded across requests (or across daemons
// sharing the cache directory) and merged once every shard has run:
//
//	curl -s -X POST 'localhost:8080/v1/sweep?shards=3&shard=0' -d @sweep.json
//	curl -s -X POST 'localhost:8080/v1/sweep?merge=1' -d @sweep.json
//
// The API answers 429 with Retry-After when the admission queue is full
// (backpressure, not buffering), 413 past -max-body, and 400 for invalid
// specs. SIGINT/SIGTERM drains gracefully: new requests get 503 while
// accepted jobs run to completion, bounded by -drain.
//
// The ops plane (/metrics, /events, /healthz, /buildinfo, /debug/pprof)
// is mounted on the same address, so one port serves both planes.
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

	"wsnloc/internal/obs"
	"wsnloc/internal/serve"

	"wsnloc/internal/exec"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wsnlocd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers    = fs.Int("workers", 0, "execution-pool worker count (0 = all CPUs)")
		queue      = fs.Int("queue", exec.DefaultQueueDepth, "admission queue depth; a full queue answers 429")
		cacheDir   = fs.String("cache", "", "sweep cell cache directory (empty = in-memory memo only); sharded sweep requests and merges require it")
		memoDir    = fs.String("memo-dir", "", "response-memo disk tier: exact response bytes persist content-addressed across restarts (empty = in-memory LRU only)")
		leaseTTL   = fs.Duration("sweep-lease-ttl", 0, "shard lease time-to-live for sharded sweep requests; a shard silent this long is presumed dead (0 = engine default)")
		maxBody    = fs.Int64("max-body", serve.DefaultMaxBodyBytes, "request body size limit in bytes (oversize answers 413)")
		reqTimeout = fs.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request execution deadline, queued wait included")
		memoSize   = fs.Int("memo-entries", serve.DefaultMemoEntries, "per-endpoint response memo bound (LRU entries; negative disables)")
		jobTTL     = fs.Duration("job-retention", serve.DefaultJobRetention, "how long finished job statuses stay queryable via /v1/jobs")
		// Slow-client protections (negative disables the timeout).
		readHeaderTO = fs.Duration("read-header-timeout", serve.DefaultReadHeaderTimeout, "max time a connection may take to send its request header (slowloris defense)")
		readTO       = fs.Duration("read-timeout", serve.DefaultReadTimeout, "max time to read one whole request, body included")
		idleTO       = fs.Duration("idle-timeout", serve.DefaultIdleTimeout, "how long an idle keep-alive connection is retained")
		maxHeader    = fs.Int("max-header-bytes", serve.DefaultMaxHeaderBytes, "per-connection request header size limit")
		drain        = fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight jobs on SIGINT/SIGTERM")
		verbose      = fs.Bool("v", false, "print event lines on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// One registry + broadcast feed both planes: the exec/serve instruments
	// land where /metrics scrapes, and every request's span chain streams
	// out of /events.
	sinks, err := obs.Start(obs.Flags{Live: true, Verbose: *verbose, Stderr: stderr})
	if err != nil {
		fmt.Fprintln(stderr, "wsnlocd:", err)
		return 1
	}
	defer sinks.Close() // no trace file, so nothing to report

	cfg := serve.Config{
		Pool:              exec.Config{Workers: *workers, QueueDepth: *queue, Metrics: sinks.Registry},
		CacheDir:          *cacheDir,
		MemoDir:           *memoDir,
		SweepLeaseTTL:     *leaseTTL,
		MaxBodyBytes:      *maxBody,
		RequestTimeout:    *reqTimeout,
		MemoEntries:       *memoSize,
		JobRetention:      *jobTTL,
		ReadHeaderTimeout: *readHeaderTO,
		ReadTimeout:       *readTO,
		IdleTimeout:       *idleTO,
		MaxHeaderBytes:    *maxHeader,
		Registry:          sinks.Registry,
		Tracer:            sinks.Tracer,
	}
	api, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "wsnlocd:", err)
		return 1
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", api.Handler())
	mux.Handle("/", obs.NewOpsMux(sinks.Registry, sinks.Broadcast))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "wsnlocd:", err)
		return 1
	}
	// The hardened server: header/read/idle timeouts and a header size cap,
	// so a slow or stalled client cannot pin a connection forever.
	srv := cfg.HTTPServer(mux)
	// Shutdown waits for every connection to go idle, and an /events stream
	// never does on its own: closing the subscriptions ends those streams
	// with a clean EOF instead of holding the drain to its deadline.
	srv.RegisterOnShutdown(sinks.Broadcast.CloseSubscribers)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	// The address line is the boot handshake scripts parse (port 0 runs).
	fmt.Fprintf(stderr, "wsnlocd: serving http://%s/ (API /v1, ops /metrics /events)\n", ln.Addr())

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "wsnlocd:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, refuse new jobs with 503,
	// let accepted work finish — all bounded by -drain.
	fmt.Fprintln(stderr, "wsnlocd: shutting down, draining in-flight jobs")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(stderr, "wsnlocd: http shutdown:", err)
		srv.Close()
		code = 1
	}
	if err := api.Shutdown(shutCtx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(stderr, "wsnlocd: drain:", err)
		code = 1
	}
	if code == 0 {
		fmt.Fprintln(stdout, "wsnlocd: drained cleanly")
	}
	return code
}
