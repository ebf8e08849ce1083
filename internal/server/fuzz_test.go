package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// fuzzPaths are the POST endpoints FuzzHandler drives.
var fuzzPaths = []string{"/v1/fill", "/v1/batch", "/v1/grid", "/v1/pipeline", "/v1/jobs"}

// fuzzConfig keeps every input's work to milliseconds: tiny shapes,
// batches, circuits, bodies and deadlines, and a short async queue.
var fuzzConfig = server.Config{
	Workers:        1,
	MaxRows:        16,
	MaxCols:        64,
	MaxBodyBytes:   4 << 10,
	MaxBatchJobs:   4,
	MaxGates:       120,
	DefaultTimeout: 200 * time.Millisecond,
	MaxTimeout:     200 * time.Millisecond,
	CacheSize:      16,
	MaxQueuedJobs:  4,
	JobRetention:   4,
	SlowThreshold:  -1,
}

// FuzzHandler drives the shared HTTP front end with arbitrary bodies
// on every POST endpoint, over both backends: a worker's local engine
// backend and a fleetless coordinator's fallback. Seeds live in
// testdata/fuzz/FuzzHandler. Whatever the body, the answer is never a
// panic and never a 500, 502 or 503 — the local backend answers every
// request, so nothing is the server's or the fleet's fault — and every
// non-2xx answer is the uniform {"error": "..."} payload.
func FuzzHandler(f *testing.F) {
	srv, err := server.New(fuzzConfig)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	// A coordinator with an empty fleet: its fallback answers every
	// request by a direct call on its local backend.
	co, err := cluster.New(cluster.Config{Local: fuzzConfig})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { co.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	f.Cleanup(cancel)
	go co.Run(ctx)
	handlers := map[string]http.Handler{"worker": srv.Handler(), "coordinator": co.Handler()}
	f.Fuzz(func(t *testing.T, pick uint8, body []byte) {
		path := fuzzPaths[int(pick)%len(fuzzPaths)]
		for tier, h := range handlers {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
			switch code := rec.Code; {
			case code == http.StatusInternalServerError, code == http.StatusBadGateway, code == http.StatusServiceUnavailable:
				t.Fatalf("%s %s answered %d: %s", tier, path, code, rec.Body)
			case code >= 300:
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Fatalf("%s %s answered %d with a non-error body %q", tier, path, code, rec.Body)
				}
			}
		}
	})
}
