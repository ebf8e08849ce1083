package server

import (
	"flag"
	"io"
	"testing"
	"time"
)

// TestFrontFlags: the shared daemon flags land on the front-end fields
// of a Config, keep their defaults when unset, and reject a bad log
// level only when logging is on.
func TestFrontFlags(t *testing.T) {
	parse := func(args ...string) (Config, string, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		apply := FrontFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workers: 3}
		debug, err := apply(&cfg)
		return cfg, debug, err
	}
	cfg, debug, err := parse()
	if err != nil || debug != "" || cfg.Log != nil {
		t.Fatalf("defaults: debug %q, log %v, err %v", debug, cfg.Log, err)
	}
	want := Config{Workers: 3, MaxBodyBytes: 8 << 20, ShutdownGrace: 5 * time.Second, SlowThreshold: time.Second,
		MaxQueuedJobs: 256, JobRetention: 256, JobWorkers: 1}
	if cfg != want {
		t.Fatalf("defaults: %+v, want %+v", cfg, want)
	}
	cfg, debug, err = parse("-max-body", "10", "-grace", "1s", "-slow-threshold", "-1s", "-data-dir", "d",
		"-max-jobs", "2", "-job-retention", "3", "-job-workers", "4", "-debug-addr", "127.0.0.1:0",
		"-access-log", "-log-level", "debug", "-log-format", "json")
	if err != nil || debug != "127.0.0.1:0" || cfg.Log == nil {
		t.Fatalf("set: debug %q, log %v, err %v", debug, cfg.Log, err)
	}
	cfg.Log = nil
	want = Config{Workers: 3, MaxBodyBytes: 10, ShutdownGrace: time.Second, SlowThreshold: -time.Second, DataDir: "d",
		MaxQueuedJobs: 2, JobRetention: 3, JobWorkers: 4}
	if cfg != want {
		t.Fatalf("set: %+v, want %+v", cfg, want)
	}
	if _, _, err := parse("-log-level", "loud"); err != nil {
		t.Fatalf("a bad level with logging off: %v", err)
	}
	for _, args := range [][]string{{"-access-log", "-log-level", "loud"}, {"-access-log", "-log-format", "xml"}} {
		if _, _, err := parse(args...); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}
