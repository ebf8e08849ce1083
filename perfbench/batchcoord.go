package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// batch-coord: a coordinator over two in-process workers, each with a
// one-worker engine, answering POST /v1/batch. A batch holds 64 jobs of
// 64 pins × 48 vectors at 70% X with DP fill and an orderer drawn from
// tool, xstat and i. About a quarter of the jobs repeat one of the last
// coordRecent distinct jobs of the stream, so they can meet a warm worker
// cache or a twin in the same batch; the pool's distinct jobs far
// outnumber the workers' caches, so the cycled pool itself never hits.
const (
	coordBatches = 32
	coordJobs    = 64
	coordPins    = 64
	coordVectors = 48
	coordX       = 0.70
	coordRepeat  = 0.25
	coordRecent  = 128
	coordWorkers = 2
	coordShard   = 16
)

var coordOrderers = []string{"tool", "xstat", "i"}

type batchCoord struct {
	cases    [][]*fillCase // per batch, per job
	distinct []*fillCase
	bodies   [2][][]byte // [0] plain, [1] with "debug":true
}

func (w *batchCoord) poolSize() int { return len(w.cases) }

func (w *batchCoord) generate(seed int64) error {
	r := newRand(seed, 2)
	for range coordBatches {
		cases := make([]*fillCase, coordJobs)
		jobs := make([]server.FillRequest, coordJobs)
		for k := range cases {
			if n := len(w.distinct); n > 0 && r.Float64() < coordRepeat {
				lo := max(0, n-coordRecent)
				cases[k] = w.distinct[lo+r.IntN(n-lo)]
			} else {
				fc, err := newFillCase(randomCubes(r, coordVectors, coordPins, coordX),
					coordOrderers[r.IntN(len(coordOrderers))])
				if err != nil {
					return err
				}
				w.distinct = append(w.distinct, fc)
				cases[k] = fc
			}
			jobs[k] = server.FillRequest{Cubes: cases[k].cubes, Orderer: cases[k].orderer, Filler: "dp"}
		}
		w.cases = append(w.cases, cases)
		w.bodies[0] = append(w.bodies[0], mustJSON(server.BatchRequest{Jobs: jobs}))
		w.bodies[1] = append(w.bodies[1], mustJSON(server.BatchRequest{Jobs: jobs, Debug: true}))
	}
	return nil
}

func (w *batchCoord) start(ctx context.Context, c *http.Client, _ string) (*tiers, error) {
	t := &tiers{}
	fail := func(err error) (*tiers, error) {
		t.close()
		return nil, err
	}
	var urls []string
	for range coordWorkers {
		s, err := server.New(server.Config{Workers: 1})
		if err != nil {
			return fail(err)
		}
		u, err := t.serve(s)
		if err != nil {
			s.Close()
			return fail(err)
		}
		urls = append(urls, u)
	}
	co, err := cluster.New(cluster.Config{Workers: urls, ShardSize: coordShard, Local: server.Config{Workers: 1}})
	if err != nil {
		return fail(err)
	}
	if t.base, err = t.serve(co); err != nil {
		co.Close()
		return fail(err)
	}
	t.scraped = append([]string{t.base}, urls...)
	admitted := func(body []byte) bool {
		var h struct {
			Healthy int `json:"workers_healthy"`
		}
		return json.Unmarshal(body, &h) == nil && h.Healthy == len(urls)
	}
	if err := waitHealthy(ctx, c, t.base, admitted); err != nil {
		return fail(err)
	}
	return t, nil
}

func (w *batchCoord) do(ctx context.Context, c *http.Client, t *tiers, i int, rec *record) error {
	body := w.bodies[0][i]
	if rec.traced {
		body = w.bodies[1][i]
	}
	data, err := timedPost(ctx, c, t.base+"/v1/batch", body, rec)
	if err != nil {
		return err
	}
	var resp server.BatchResponse
	if err := decodeJSON(data, "batch answer", &resp); err != nil {
		return err
	}
	if _, err := batchItems(&resp, w.cases[i], false, rec); err != nil {
		return err
	}
	if !rec.traced {
		return nil
	}
	if len(resp.Shards) == 0 {
		return fmt.Errorf("debug batch answer carries no shard breakdown")
	}
	return w.trace(rec, &resp, len(data))
}

// trace builds the request's span tree from the coordinator's shards[]:
// shards run concurrently; each is one dispatch around the winning
// worker call, inside which the worker's one-slot engine ran the shard's
// uncached jobs one after another.
func (w *batchCoord) trace(rec *record, resp *server.BatchResponse, size int) error {
	l := rec.layers
	root := newSpan("request", rec.latency)
	root.Lanes = len(resp.Shards)
	var firstErr error
	for _, sh := range resp.Shards {
		d := root.add(newSpan("cluster.dispatch", time.Duration(sh.DispatchNS)))
		parent := d
		if !sh.FellBack {
			parent = d.add(newSpan("cluster.worker", time.Duration(sh.WorkerNS)))
		}
		for k := sh.Lo; k < sh.Hi; k++ {
			it := resp.Results[k].Result
			if it.Cached {
				continue
			}
			js, err := jobSpan(it)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			parent.add(js)
			fillResponseLayers(l, it)
		}
		l.mean("cluster.dispatch_ms", durMS(time.Duration(sh.DispatchNS)))
		l.mean("cluster.worker_ms", durMS(time.Duration(sh.WorkerNS)))
		l.mean("cluster.overhead_ms", durMS(time.Duration(sh.DispatchNS-sh.WorkerNS)))
		l.mean("cluster.attempts_per_shard", float64(sh.Attempts))
	}
	rec.root = root
	l.mean("server.http_ms", durMS(root.other()))
	l.mean("server.response_kb", kib(size))
	return firstErr
}

func (w *batchCoord) replay(l *layers) error {
	// Every client keeps one batch of coordJobs/coordShard shards in
	// flight, spread over the workers: that many concurrent Run calls of
	// one shard each per one-slot engine.
	callers := clients() * coordJobs / coordShard / coordWorkers
	return replayFills(l, w.distinct[:min(len(w.distinct), 256)],
		engineShape{workers: 1, callers: callers, jobsPerCall: coordShard})
}
