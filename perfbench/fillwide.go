package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"

	"repro/internal/server"
)

// fill-wide: one worker answering POST /v1/fill for distinct 1000-pin ×
// 200-vector sets at 80% X, tool order and DP fill, filled cubes
// returned. The pool is larger than the worker's result cache and cycled
// in order, so every request misses the cache.
const (
	wideVectors = 200
	widePins    = 1000
	wideX       = 0.80
	widePool    = 24
	wideCache   = 16
)

type fillWide struct {
	cases  []*fillCase
	bodies [2][][]byte // [0] plain, [1] with "debug":true
}

func (w *fillWide) poolSize() int { return len(w.cases) }

func (w *fillWide) generate(seed int64) error {
	r := newRand(seed, 1)
	for i := range widePool {
		cubes := randomCubes(r, wideVectors, widePins, wideX)
		fc, err := newFillCase(cubes, "tool")
		if err != nil {
			return err
		}
		w.cases = append(w.cases, fc)
		req := server.FillRequest{Name: fmt.Sprintf("wide-%d", i), Cubes: cubes, Orderer: "tool", Filler: "dp"}
		w.bodies[0] = append(w.bodies[0], mustJSON(req))
		req.Debug = true
		w.bodies[1] = append(w.bodies[1], mustJSON(req))
	}
	return nil
}

func (w *fillWide) start(ctx context.Context, c *http.Client, _ string) (*tiers, error) {
	t := &tiers{}
	s, err := server.New(server.Config{CacheSize: wideCache})
	if err != nil {
		return nil, err
	}
	if t.base, err = t.serve(s); err != nil {
		s.Close()
		return nil, err
	}
	t.scraped = []string{t.base}
	if err := waitHealthy(ctx, c, t.base, nil); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (w *fillWide) do(ctx context.Context, c *http.Client, t *tiers, i int, rec *record) error {
	body := w.bodies[0][i]
	if rec.traced {
		body = w.bodies[1][i]
	}
	data, err := timedPost(ctx, c, t.base+"/v1/fill", body, rec)
	if err != nil {
		return err
	}
	var resp server.FillResponse
	if err := decodeJSON(data, "fill answer", &resp); err != nil {
		return err
	}
	fc := w.cases[i]
	err = checkFill(fc, &resp, false)
	if legal(err) {
		rec.addFill(resp.Peak, fc.bound)
	}
	if err != nil {
		return err
	}
	if !rec.traced {
		return nil
	}
	if resp.Explain == nil {
		return fmt.Errorf("debug fill answer carries no explain trace")
	}
	rec.root = newSpan("request", rec.latency)
	srv, err := jobSpan(&resp)
	srv.Name = "server"
	rec.root.add(srv)
	l := rec.layers
	l.mean("server.http_ms", durMS(rec.root.other()))
	l.mean("server.response_kb", kib(len(data)))
	fillResponseLayers(l, &resp)
	return err
}

func (w *fillWide) replay(l *layers) error {
	// The worker's engine is sized to GOMAXPROCS; each client offers it
	// one job at a time.
	return replayFills(l, w.cases, engineShape{workers: runtime.GOMAXPROCS(0), callers: clients(), jobsPerCall: 1})
}
