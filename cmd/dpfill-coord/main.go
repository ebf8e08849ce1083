// Command dpfill-coord runs the fill-cluster coordinator: a daemon
// that shards /v1/batch workloads (and fault-shards /v1/pipeline runs)
// across a fleet of dpfilld workers, health-checks them by heartbeat,
// retries failed shards on other workers, and serves the same /v1/*
// API the workers do — callers never learn the topology.
//
// Usage:
//
//	dpfill-coord -addr :8090 \
//	    -worker http://fill-1:8080 -worker http://fill-2:8080 \
//	    -heartbeat 2s -shard-size 16 -hedge-after 500ms
//
// The endpoints are the ones documented in the internal/server package
// doc; /healthz adds the admitted worker count, and /stats is the
// fleet view: shards, retries, hedges and per-worker load.
//
// Async jobs, batches and pipelines alike, shard across the fleet
// exactly like synchronous requests; with -data-dir they are journaled
// and survive a coordinator restart.
//
// With no reachable workers the coordinator answers on a local
// in-process engine, by a direct call, unless -fallback=false. The
// daemon shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/debugz"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dpfill-coord:", err)
		os.Exit(1)
	}
}

// workersFlag accumulates -worker values: the flag is repeatable and
// each value may hold a comma-separated URL list.
type workersFlag []string

func (w *workersFlag) String() string { return strings.Join(*w, ",") }
func (w *workersFlag) Set(s string) error {
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*w = append(*w, part)
		}
	}
	return nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dpfill-coord", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	var workers workersFlag
	fs.Var(&workers, "worker", "dpfilld worker base URL (repeatable, comma-separable)")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "worker health-check interval")
	hbTimeout := fs.Duration("heartbeat-timeout", time.Second, "per-worker health-check deadline")
	failThreshold := fs.Int("fail-threshold", 2, "consecutive failed heartbeats before ejecting a worker")
	shardSize := fs.Int("shard-size", 16, "batch jobs per worker shard")
	attempts := fs.Int("attempts", 3, "distinct workers tried per shard before giving up")
	hedgeAfter := fs.Duration("hedge-after", 0, "duplicate a shard on another worker after this long (0 disables)")
	noAffinity := fs.Bool("no-affinity", false, "disable warm-cache routing: dispatch least-loaded instead of by request hash")
	attemptTimeout := fs.Duration("attempt-timeout", 3*time.Minute, "per-worker answer deadline before a shard fails over (hung-worker guard)")
	fallback := fs.Bool("fallback", true, "run jobs on a local in-process engine when no worker is reachable")
	localWorkers := fs.Int("fallback-workers", 0, "local fallback engine worker bound (0 = GOMAXPROCS)")
	maxBatch := fs.Int("max-batch", 256, "largest accepted job count per batch")
	frontFlags := server.FrontFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	local := server.Config{Workers: *localWorkers, MaxBatchJobs: *maxBatch}
	debugAddr, err := frontFlags(&local)
	if err != nil {
		return err
	}
	co, err := cluster.New(cluster.Config{
		Workers: workers,
		Registry: cluster.RegistryConfig{
			HeartbeatInterval: *heartbeat,
			HeartbeatTimeout:  *hbTimeout,
			FailThreshold:     *failThreshold,
		},
		ShardSize:       *shardSize,
		MaxAttempts:     *attempts,
		HedgeAfter:      *hedgeAfter,
		AttemptTimeout:  *attemptTimeout,
		DisableFallback: !*fallback,
		DisableAffinity: *noAffinity,
		Local:           local,
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if debugAddr != "" {
		go func() {
			if derr := debugz.ListenAndServe(ctx, debugAddr, co.Metrics()); derr != nil {
				fmt.Fprintln(os.Stderr, "dpfill-coord: debug listener:", derr)
			}
		}()
	}
	fmt.Fprintf(stdout, "dpfill-coord listening on %s (workers=%d shard-size=%d fallback=%v)\n",
		l.Addr(), len(workers), *shardSize, *fallback)
	err = co.Serve(ctx, l)
	if err == nil {
		fmt.Fprintln(stdout, "dpfill-coord: shut down cleanly")
	}
	return err
}
