// Package server is the HTTP front end of the DP-fill service, and
// its local engine backend. Requests carry cube sets (inline matrices
// or STIL pattern text) plus the ordering/filling algorithms to run on
// them. One front end (Front) serves both tiers: a worker (Server) puts
// it over the local engine backend (Local), whose jobs run on one
// shared engine worker pool bounded machine-wide and whose repeated
// pattern sets are answered from an LRU keyed by the request digest;
// the cluster coordinator puts it over its fleet dispatch, and calls a
// Local directly as its fallback.
//
// Endpoints, on both tiers:
//
//	POST   /v1/fill      one cube set -> filled set + toggle statistics
//	POST   /v1/batch     many jobs, one engine batch, per-job isolation
//	                     (sharded across the fleet by a coordinator)
//	POST   /v1/grid      every Table II-IV filler on one set, rendered table
//	POST   /v1/pipeline  netlist -> ATPG -> fill -> power, typed report
//	                     (fault-sharded across the fleet by a coordinator)
//	POST   /v1/jobs      submit a batch or pipeline asynchronously -> job ID (202)
//	GET    /v1/jobs      list retained async jobs
//	GET    /v1/jobs/{id} async job status/progress/result (?watch=1 streams SSE)
//	DELETE /v1/jobs/{id} cancel an async job
//	GET    /healthz      liveness (a coordinator adds its admitted worker count)
//	GET    /stats        a worker's jobs served, cache hit rate, p50/p99
//	                     latency; a coordinator's shards, retries, hedges
//	                     and per-worker load
//	GET    /metrics      Prometheus text exposition (dpfill_* on a worker,
//	                     dpfill_coord_* on a coordinator)
//
// Every request is validated against configurable shape and body-size
// limits and runs under a per-request deadline derived from the
// request context; Serve shuts down gracefully when its context is
// cancelled. Async jobs run the exact same batch and pipeline paths as
// the synchronous endpoints — same validation, same backend — and,
// with Config.DataDir set, survive a restart through the internal/jobs
// write-ahead log.
package server

import (
	"time"

	"repro/internal/engine"
	"repro/internal/logx"
)

// Config tunes a Server, a Local backend or a Front. The zero value is
// valid: every limit gets a production-safe default.
type Config struct {
	// Engine, when non-nil, is the shared batch engine to run jobs on;
	// nil constructs one sized by Workers. Passing an Engine lets a
	// process share one machine-wide worker bound between the server
	// and other batch work.
	Engine *engine.Engine
	// Workers sizes the constructed engine when Engine is nil; <= 0
	// means GOMAXPROCS.
	Workers int
	// MaxRows and MaxCols bound accepted cube-set shapes (default
	// 4096 rows x 65536 columns).
	MaxRows, MaxCols int
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatchJobs bounds the jobs of one /v1/batch request (default
	// 256).
	MaxBatchJobs int
	// MaxGates bounds the resolved circuit size of one /v1/pipeline
	// request (default 250000 — the whole ITC'99 catalog fits, but a
	// one-line spec cannot demand an unbounded synthesis+ATPG run).
	MaxGates int
	// DefaultTimeout is the per-job deadline when a request does not
	// set timeout_ms (default 30s); MaxTimeout is the ceiling requests
	// are clamped to (default 2m).
	DefaultTimeout, MaxTimeout time.Duration
	// CacheSize is the LRU entry bound keyed by (cube-set digest,
	// filler, orderer, seed); 0 means the default 256, negative
	// disables caching.
	CacheSize int
	// ShutdownGrace bounds how long Serve waits for in-flight requests
	// after its context is cancelled (default 5s).
	ShutdownGrace time.Duration
	// DataDir, when set, persists the async job queue (/v1/jobs) to a
	// write-ahead log there: accepted jobs survive a restart — settled
	// ones answer from their journaled results, unsettled ones re-run.
	// Empty keeps the async API in memory only.
	DataDir string
	// MaxQueuedJobs bounds async jobs accepted but not yet settled;
	// submits past it answer 429 (default 256).
	MaxQueuedJobs int
	// JobRetention bounds how many settled async jobs stay queryable
	// (default 256; the oldest are evicted first).
	JobRetention int
	// JobWorkers is how many async jobs execute concurrently (default
	// 1 — strict FIFO; each batch already parallelizes on the engine
	// or across the fleet).
	JobWorkers int
	// Log, when non-nil, receives one structured access-log record per
	// request (method, path, status, duration, trace/span IDs) plus
	// job-completion and dispatch records, so fleet operators can
	// correlate a request across coordinator and worker logs. nil
	// disables logging.
	Log *logx.Logger
	// SlowThreshold is the latency SLO: requests over it are counted as
	// SLO breaches and their full trace+explain snapshot lands in the
	// /stats slow_requests ring. 0 means the default 1s; negative
	// disables slow capture and the SLO families.
	SlowThreshold time.Duration
}

// WithDefaults resolves every unset field to its default.
func (c Config) WithDefaults() Config {
	if c.MaxRows <= 0 {
		c.MaxRows = 4096
	}
	if c.MaxCols <= 0 {
		c.MaxCols = 65536
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = 256
	}
	if c.MaxGates <= 0 {
		c.MaxGates = 250000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 5 * time.Second
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = time.Second
	}
	return c
}

// clampTimeout resolves a request's timeout_ms against the default
// and ceiling.
func (c Config) clampTimeout(millis int64) time.Duration {
	d := time.Duration(millis) * time.Millisecond
	if d <= 0 {
		d = c.DefaultTimeout
	}
	if d > c.MaxTimeout {
		d = c.MaxTimeout
	}
	return d
}

// Server is the worker tier: the HTTP front end over the local engine
// backend. Construct with New; the zero value is not usable. Stop the
// async job workers with Close when the Server is discarded without
// going through Serve.
type Server struct {
	*Front
	local *Local
}

// New returns a Server ready to serve via Handler, Serve or
// ListenAndServe. With Config.DataDir set it replays the async job
// journal first, so jobs accepted before a crash are re-run (or their
// recorded results re-served) before traffic arrives; an unreadable
// journal or data directory is the only error path.
func New(cfg Config) (*Server, error) {
	cfg = cfg.WithDefaults()
	s := &Server{local: NewLocal(cfg)}
	front, err := NewFront(cfg, Tier{
		Backend:  s.local,
		Prefix:   "dpfill",
		Register: s.local.register,
		Health:   func() any { return map[string]string{"status": "ok"} },
		Stats:    func() any { return s.Stats() },
	})
	if err != nil {
		return nil, err
	}
	s.Front = front
	return s, nil
}

// Stats returns a snapshot of the serving statistics.
func (s *Server) Stats() Stats {
	st := s.local.stats()
	st.SlowRequests = s.SlowRequests()
	return st
}
