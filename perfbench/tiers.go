package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/reqid"
)

// servable is what both tiers' public types offer: serve HTTP on a
// listener until the context ends, then shut down gracefully.
type servable interface {
	Serve(ctx context.Context, l net.Listener) error
}

// tiers is one running deployment of a workload: the front end the
// clients call, every in-process service whose /metrics the benchmark
// reads, and how to stop them.
type tiers struct {
	base    string
	scraped []string
	stops   []func() // run in reverse order by close
	dir     string   // temporary data directory, removed by close
}

// serve starts s on a fresh loopback listener and registers its stop.
func (t *tiers) serve(s servable) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()
	t.stops = append(t.stops, func() {
		cancel()
		<-done
	})
	return "http://" + l.Addr().String(), nil
}

// close stops every service, front end first, and waits for each.
func (t *tiers) close() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
	t.stops = nil
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}

// waitHealthy polls base/healthz until it answers 200 and ready accepts
// the body (nil accepts any), or fails after ten seconds.
func waitHealthy(ctx context.Context, c *http.Client, base string, ready func([]byte) bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, body, err := get(ctx, c, base+"/healthz")
		if err == nil && status == http.StatusOK && (ready == nil || ready(body)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready after 10s (status %d, err %v)", base, status, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// newClient returns the HTTP client every benchmark client shares: kept
// alive connections, no compression, no timeouts beyond the run's context.
func newClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr}, tr
}

func get(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// errStatus is a non-2xx answer.
var errStatus = errors.New("unexpected HTTP status")

// post sends body to url under the request ID rid and returns the full
// response body once read. A status other than want is an error carrying
// the body's first bytes. The answer must echo rid, the key the traced
// run files its spans under.
func post(ctx context.Context, c *http.Client, url string, body []byte, rid string, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqid.Header, rid)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s answer: %w", url, err)
	}
	if resp.StatusCode != want {
		return data, fmt.Errorf("%w %d from %s: %.200s", errStatus, resp.StatusCode, url, data)
	}
	if got := resp.Header.Get(reqid.Header); got != rid {
		return data, fmt.Errorf("answer echoes request ID %q, sent %q", got, rid)
	}
	return data, nil
}

// decodeJSON decodes an answer body, naming what it was.
func decodeJSON(data []byte, what string, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	return nil
}

// timedPost is post expecting 200, with the request's latency recorded:
// from send until the full answer is read.
func timedPost(ctx context.Context, c *http.Client, url string, body []byte, rec *record) ([]byte, error) {
	t0 := time.Now()
	data, err := post(ctx, c, url, body, rec.rid, http.StatusOK)
	rec.latency = time.Since(t0)
	return data, err
}
