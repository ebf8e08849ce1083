// Command dpfilld serves DP-fill over HTTP: a long-running daemon that
// accepts fill requests (inline cube matrices or STIL pattern text),
// routes them through the shared concurrent batch engine, caches
// repeated pattern sets, and reports serving statistics.
//
// Usage:
//
//	dpfilld -addr :8080 -workers 8 -cache 512 -data-dir /var/lib/dpfill
//
// The endpoints — fill, batch, grid, pipeline, async jobs, /healthz,
// /stats and /metrics — are documented in the internal/server package
// doc.
//
// With -data-dir the async job queue is journaled there: a daemon
// killed mid-job re-runs accepted work on restart and answers with the
// same results the lost run would have produced.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, letting in-flight
// requests finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/debugz"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dpfilld:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dpfilld", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "engine worker bound (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 256, "result cache entries (negative disables)")
	maxRows := fs.Int("max-rows", 4096, "largest accepted cube count per set")
	maxCols := fs.Int("max-cols", 65536, "largest accepted cube width")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-job deadline")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "ceiling for requested deadlines")
	frontFlags := server.FrontFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := server.Config{
		Workers:        *workers,
		CacheSize:      *cacheSize,
		MaxRows:        *maxRows,
		MaxCols:        *maxCols,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	}
	debugAddr, err := frontFlags(&cfg)
	if err != nil {
		return err
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if debugAddr != "" {
		go func() {
			if derr := debugz.ListenAndServe(ctx, debugAddr, srv.Metrics()); derr != nil {
				fmt.Fprintln(os.Stderr, "dpfilld: debug listener:", derr)
			}
		}()
	}
	fmt.Fprintf(stdout, "dpfilld listening on %s (workers=%d cache=%d)\n",
		l.Addr(), *workers, *cacheSize)
	err = srv.Serve(ctx, l)
	if err == nil {
		fmt.Fprintln(stdout, "dpfilld: shut down cleanly")
	}
	return err
}
