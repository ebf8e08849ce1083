package main

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/engine"
	"repro/internal/fill"
	"repro/internal/order"
	"repro/internal/server"
)

// workload is one traffic mix: a seeded request pool, the tiers it runs
// on, and how one request is sent and checked.
type workload interface {
	// generate builds the request pool and every expected answer from
	// the seed. It runs before set-up and timing.
	generate(seed int64) error
	// start builds the workload's tiers through their public
	// constructors and returns once the front end's first /healthz
	// answers ready.
	start(ctx context.Context, c *http.Client, dir string) (*tiers, error)
	// poolSize is the number of distinct pool requests, cycled in order.
	poolSize() int
	// do sends pool request i, waits for the answer and checks it.
	do(ctx context.Context, c *http.Client, t *tiers, i int, rec *record) error
	// replay times the layers' public functions on the workload's
	// inputs, for the traced run.
	replay(l *layers) error
}

// record is what one request leaves behind.
type record struct {
	rid     string
	traced  bool
	latency time.Duration
	// peak and bound sum the achieved peaks and BCP bounds of the
	// request's legal fills: those that pass every check but the bound.
	peak, bound int
	// layers and root are filled in the traced run only.
	layers *layers
	root   *span
}

// addFill records a legal fill in the request's peak/bound tally.
func (r *record) addFill(peak, bound int) {
	r.peak += peak
	r.bound += bound
}

var workloads = map[string]func() workload{
	"fill-wide":     func() workload { return &fillWide{} },
	"batch-coord":   func() workload { return &batchCoord{} },
	"pipeline-atpg": func() workload { return &pipelineATPG{} },
	"async-long":    func() workload { return &asyncLong{} },
}

// engineShape is how a workload offers fill jobs to one engine: that
// many concurrent Run calls of that many jobs each, on that many workers.
// The zero shape, for a workload that fills without the engine, skips
// the engine replay.
type engineShape struct {
	workers, callers, jobsPerCall int
}

// replayFills times the fill path's layers directly on cases: cube.ParseSet
// on the request strings, the request's orderer, and Cube.String over the
// filled set, then an Engine.Run replay at the workload's shape. Engine
// queue wait is the part of a Run call's wall time its jobs did not run,
// spread over the call's lanes.
func replayFills(l *layers, cases []*fillCase, shape engineShape) error {
	for _, fc := range cases {
		t0 := time.Now()
		set, err := cube.ParseSet(fc.cubes...)
		if err != nil {
			return err
		}
		l.mean("cube.parse_ms", millisSince(t0))
		ord, err := order.ByName(fc.orderer, 1)
		if err != nil {
			return err
		}
		t0 = time.Now()
		perm, err := ord.Order(set)
		if err != nil {
			return err
		}
		l.mean("order.order_ms", millisSince(t0))
		filled, _, err := core.FillWith(set.Reorder(perm), core.Options{Shards: 1})
		if err != nil {
			return err
		}
		t0 = time.Now()
		for _, c := range filled.Cubes {
			renderSink += len(c.String())
		}
		l.mean("cube.render_ms", millisSince(t0))
	}
	return replayEngine(l, cases, shape)
}

// renderSink keeps the timed renders observable to the compiler.
var renderSink int

var errReplayPeak = errors.New("engine replay: DP peak differs from the BCP bound")

func replayEngine(l *layers, cases []*fillCase, shape engineShape) error {
	if shape.workers == 0 {
		return nil
	}
	sets := make([]*cube.Set, len(cases))
	for i, fc := range cases {
		set, err := cube.ParseSet(fc.cubes...)
		if err != nil {
			return err
		}
		sets[i] = set
	}
	eng := engine.New(shape.workers)
	per := len(cases) / shape.callers
	parts := make([]*layers, shape.callers)
	errs := make(chan error, shape.callers)
	for c := range shape.callers {
		parts[c] = newLayers()
		go func(l *layers, lo, hi int) {
			errs <- replayEngineCalls(l, eng, cases[lo:hi], sets[lo:hi], shape)
		}(parts[c], c*per, (c+1)*per)
	}
	var first error
	for range shape.callers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	for _, p := range parts {
		l.merge(p)
	}
	return first
}

func replayEngineCalls(l *layers, eng *engine.Engine, cases []*fillCase, sets []*cube.Set, shape engineShape) error {
	for lo := 0; lo+shape.jobsPerCall <= len(cases); lo += shape.jobsPerCall {
		jobs := make([]engine.Job, shape.jobsPerCall)
		for k := range jobs {
			fc := cases[lo+k]
			ord, err := order.ByName(fc.orderer, 1)
			if err != nil {
				return err
			}
			jobs[k] = engine.Job{
				Set:     sets[lo+k],
				Orderer: ord,
				Filler:  fill.DPWith(core.Options{Shards: 1}),
			}
		}
		t0 := time.Now()
		results := eng.Run(context.Background(), jobs)
		wall := time.Since(t0)
		var busy time.Duration
		for k, res := range results {
			if res.Err != nil {
				return res.Err
			}
			if res.Peak != cases[lo+k].bound {
				return errReplayPeak
			}
			busy += res.Duration
			l.mean("engine.job_ms", durMS(res.Duration))
		}
		lanes := min(shape.workers, len(jobs))
		l.mean("engine.queue_wait_ms", durMS(wall-busy/time.Duration(lanes)))
	}
	return nil
}

// fillResponseLayers records the server and core layers of one served
// DP fill item: prep is the item's server time outside the fill core.
func fillResponseLayers(l *layers, r *server.FillResponse) {
	if r.Explain == nil || r.Cached {
		return
	}
	l.mean("server.prep_ms", r.DurationMillis-durMS(time.Duration(r.Explain.TotalNS)))
	addCore(l, r.Explain)
}

// jobSpan is one served fill item as a span: the item's server time with
// its fill core inside. Cached items carry no work of their own.
func jobSpan(r *server.FillResponse) (*span, error) {
	s := newSpan("server.job", msDur(r.DurationMillis))
	if r.Explain == nil {
		return s, nil
	}
	f, err := fillSpan(r.Explain)
	s.add(f)
	return s, err
}
