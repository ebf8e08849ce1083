package server

import (
	"flag"
	"os"
	"time"

	"repro/internal/logx"
)

// FrontFlags registers on fs the front-end flags dpfilld and
// dpfill-coord share: body limit, shutdown grace, logging, admin
// address, slow capture and the async job queue. After fs.Parse, the
// returned function fills cfg's front-end fields from them — building
// the structured stderr logger, nil unless -access-log is set — and
// returns the -debug-addr value.
func FrontFlags(fs *flag.FlagSet) func(cfg *Config) (debugAddr string, err error) {
	maxBody := fs.Int64("max-body", 8<<20, "largest accepted request body in bytes")
	grace := fs.Duration("grace", 5*time.Second, "graceful shutdown window")
	accessLog := fs.Bool("access-log", false, "log one structured record per request (with X-Request-ID) to stderr")
	logLevel := fs.String("log-level", "info", "log severity floor: debug, info, warn or error")
	logFormat := fs.String("log-format", "logfmt", "log line encoding: logfmt or json")
	debug := fs.String("debug-addr", "", "serve pprof profiles and /metrics on this admin address (empty disables)")
	slowThreshold := fs.Duration("slow-threshold", time.Second, "latency SLO: slower /v1/* requests are captured in /stats slow_requests (negative disables)")
	dataDir := fs.String("data-dir", "", "journal async jobs here so they survive restarts (empty = memory only)")
	maxJobs := fs.Int("max-jobs", 256, "largest accepted async job backlog before 429")
	jobRetention := fs.Int("job-retention", 256, "settled async jobs kept queryable")
	jobWorkers := fs.Int("job-workers", 1, "async jobs run concurrently")
	return func(cfg *Config) (string, error) {
		if *accessLog {
			lv, err := logx.ParseLevel(*logLevel)
			if err != nil {
				return "", err
			}
			fm, err := logx.ParseFormat(*logFormat)
			if err != nil {
				return "", err
			}
			cfg.Log = logx.New(os.Stderr, logx.Options{Level: lv, Format: fm})
		}
		cfg.MaxBodyBytes = *maxBody
		cfg.ShutdownGrace = *grace
		cfg.SlowThreshold = *slowThreshold
		cfg.DataDir = *dataDir
		cfg.MaxQueuedJobs = *maxJobs
		cfg.JobRetention = *jobRetention
		cfg.JobWorkers = *jobWorkers
		return *debug, nil
	}
}
