package server

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/fill"
	"repro/internal/jobs"
	"repro/internal/order"
	"repro/internal/pipeline"
)

// Local is the local engine backend: it answers the /v1/* work in
// process, every fill job on one shared engine behind a result cache.
// A worker serves it through its front end; a coordinator calls it
// directly as its fallback, with no HTTP or JSON round trip.
type Local struct {
	cfg   Config
	eng   *engine.Engine
	cache *lruCache
	met   *metrics
}

// NewLocal builds the engine backend from cfg's engine, cache, shape
// and timeout settings.
func NewLocal(cfg Config) *Local {
	cfg = cfg.WithDefaults()
	eng := cfg.Engine
	if eng == nil {
		eng = engine.New(cfg.Workers)
	}
	return &Local{
		cfg:   cfg,
		eng:   eng,
		cache: newLRUCache(cfg.CacheSize),
		met:   newMetrics(),
	}
}

// stats returns a snapshot of the backend's serving statistics, slow
// requests aside (those are the front end's).
func (l *Local) stats() Stats {
	queued, inflight := l.eng.Load()
	return l.met.snapshot(l.cache.Len(), queued, inflight, l.eng.Bound())
}

// resolveFill validates a FillRequest and resolves its algorithms.
// DP-fill is pinned to one shard: the engine pool is the concurrency
// layer here, and per-fill fan-out would oversubscribe it. DP jobs
// carry a fresh explain trace sink (the returned *core.Trace); the
// engine writes it during the run and Fill/Batch fold it into
// the stage histograms afterwards. Non-DP fillers return a nil trace.
func (l *Local) resolveFill(req FillRequest) (engine.Job, FillResponse, string, *core.Trace, error) {
	var job engine.Job
	var resp FillResponse
	set, err := l.parseSet(req.Cubes, req.STIL)
	if err != nil {
		return job, resp, "", nil, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	ordName := req.Orderer
	if ordName == "" {
		ordName = "tool"
	}
	ord, err := order.ByName(ordName, seed)
	if err != nil {
		return job, resp, "", nil, badRequestf("%v", err)
	}
	fl, tr, err := serverFiller(req.Filler, req.Window, seed)
	if err != nil {
		return job, resp, "", nil, badRequestf("%v", err)
	}
	job = engine.Job{
		Name:     req.Name,
		Set:      set,
		Orderer:  ord,
		Filler:   fl,
		Priority: req.Priority,
		Timeout:  l.cfg.clampTimeout(req.TimeoutMillis),
	}
	resp = FillResponse{
		Name:     req.Name,
		Rows:     set.Len(),
		Width:    set.Width,
		XPercent: set.XPercent(),
		Orderer:  ord.Name(),
		Filler:   fl.Name(),
	}
	digest := fillDigest(set, ord.Name(), fl.Name(), seed)
	return job, resp, digest, tr, nil
}

// serverFiller resolves a filler name with DP-fill pinned to a single
// shard (see resolveFill). An empty name means DP-fill. A window >= 2
// selects the streaming windowed DP-fill; its distinct filler name
// ("DP-fill(wN)") flows into the response and the cache digest, so
// windowed and monolithic results never alias in the cache. DP fillers
// are built with the returned trace sink attached; each call builds a
// private filler+sink pair, so concurrent jobs never share one.
func serverFiller(name string, window int, seed int64) (fill.Filler, *core.Trace, error) {
	if name == "" {
		name = "dp"
	}
	fl, err := fill.ByNameSerial(name, seed)
	if err != nil {
		return nil, nil, err
	}
	if fl.Name() != "DP-fill" {
		if window != 0 {
			return nil, nil, fmt.Errorf("window is only valid with the dp filler, not %q", name)
		}
		return fl, nil, nil
	}
	tr := &core.Trace{}
	opt := core.Options{Shards: 1, Trace: tr}
	if window == 0 {
		return fill.DPWith(opt), tr, nil
	}
	if window < 2 {
		return nil, nil, fmt.Errorf("window %d: must be >= 2", window)
	}
	return fill.DPWindowed(window, opt), tr, nil
}

// finishFill completes a response from either a cache entry or an
// engine result.
func finishFill(resp *FillResponse, entry *cachedFill, omitCubes, cached bool, elapsed time.Duration) {
	resp.Perm = entry.Perm
	resp.Peak = entry.Peak
	resp.Total = entry.Total
	resp.Profile = entry.Profile
	if !omitCubes {
		resp.Cubes = entry.Cubes
	}
	resp.Cached = cached
	// Nanoseconds in float64: microsecond flooring would zero out
	// cache-hit latencies entirely.
	resp.DurationMillis = float64(elapsed.Nanoseconds()) / 1e6
}

// Fill answers one fill job: cache lookup, then one engine job.
func (l *Local) Fill(ctx context.Context, req FillRequest) (*FillResponse, error) {
	start := time.Now()
	job, resp, digest, tr, err := l.resolveFill(req)
	if err != nil {
		return nil, err
	}
	if entry, ok := l.cache.Get(digest); ok {
		finishFill(&resp, entry, req.OmitCubes, true, time.Since(start))
		if req.Debug {
			resp.Explain = entry.Explain
		}
		l.met.observeJob(time.Since(start), true)
		return &resp, nil
	}
	r := l.eng.Run(ctx, []engine.Job{job})[0]
	if r.Err != nil {
		l.met.observeError()
		return nil, r.Err
	}
	entry := &cachedFill{
		Cubes:   r.Filled.Strings(),
		Perm:    r.Perm,
		Peak:    r.Peak,
		Total:   r.Total,
		Profile: r.Profile,
		Explain: tr,
	}
	l.cache.Put(digest, entry)
	finishFill(&resp, entry, req.OmitCubes, false, time.Since(start))
	if tr != nil {
		l.met.observeFillTrace(tr)
		AnnotateExplain(ctx, tr)
		if req.Debug {
			resp.Explain = tr
		}
	}
	// Metrics record the engine-reported execution time, keeping
	// /v1/fill and /v1/batch miss samples comparable.
	l.met.observeJob(r.Duration, false)
	return &resp, nil
}

// Batch answers one batch: per-job resolve/cache/dedup, one engine
// run, per-job failure isolation. It is the single execution path
// behind both POST /v1/batch and the async /v1/jobs runner, which is
// what makes an async job's result byte-identical (cubes, peak,
// total) to the synchronous answer for the same request.
func (l *Local) Batch(ctx context.Context, req BatchRequest) *BatchResponse {
	// As an async job, the batch reports progress whenever a slice of
	// items reaches a final outcome: once after the resolve/cache pass,
	// then per engine result as misses are folded in.
	progress := jobs.Progress(ctx)
	done := 0
	items := make([]BatchItem, len(req.Jobs))
	resps := make([]FillResponse, len(req.Jobs))
	starts := make([]time.Time, len(req.Jobs))
	var engineJobs []engine.Job
	var jobIdx []int                // engineJobs[k] answers items[jobIdx[k]]
	var digests []string            // aligned with engineJobs
	var traces []*core.Trace        // aligned with engineJobs; nil for non-DP
	pending := make(map[string]int) // digest -> index into engineJobs
	type dupRef struct{ item, job int }
	var dups []dupRef
	for i, jr := range req.Jobs {
		starts[i] = time.Now()
		debug := req.Debug || jr.Debug
		job, resp, digest, tr, err := l.resolveFill(jr)
		if err != nil {
			items[i] = BatchItem{Error: err.Error()}
			l.met.observeError()
			continue
		}
		resps[i] = resp
		if entry, ok := l.cache.Get(digest); ok {
			finishFill(&resps[i], entry, jr.OmitCubes, true, time.Since(starts[i]))
			if debug {
				resps[i].Explain = entry.Explain
			}
			l.met.observeJob(time.Since(starts[i]), true)
			items[i] = BatchItem{Result: &resps[i]}
			continue
		}
		// Dedup key includes the clamped timeout: two identical jobs
		// only share an outcome when they would also fail identically
		// (a shorter-deadline twin may time out where the longer one
		// succeeds).
		pendingKey := fmt.Sprintf("%s|%d", digest, job.Timeout)
		if k, ok := pending[pendingKey]; ok {
			// An identical job earlier in this batch will compute the
			// result; share it instead of recomputing.
			dups = append(dups, dupRef{item: i, job: k})
			continue
		}
		pending[pendingKey] = len(engineJobs)
		engineJobs = append(engineJobs, job)
		jobIdx = append(jobIdx, i)
		digests = append(digests, digest)
		traces = append(traces, tr)
	}
	done = len(req.Jobs) - len(engineJobs) - len(dups)
	progress(done)
	results := l.eng.Run(ctx, engineJobs)
	entries := make([]*cachedFill, len(engineJobs))
	for k, res := range results {
		i := jobIdx[k]
		done++
		progress(done)
		if res.Err != nil {
			items[i] = BatchItem{Error: res.Err.Error()}
			l.met.observeError()
			continue
		}
		entry := &cachedFill{
			Cubes:   res.Filled.Strings(),
			Perm:    res.Perm,
			Peak:    res.Peak,
			Total:   res.Total,
			Profile: res.Profile,
			Explain: traces[k],
		}
		entries[k] = entry
		l.cache.Put(digests[k], entry)
		finishFill(&resps[i], entry, req.Jobs[i].OmitCubes, false, res.Duration)
		if tr := traces[k]; tr != nil {
			l.met.observeFillTrace(tr)
			AnnotateExplain(ctx, tr)
			if req.Debug || req.Jobs[i].Debug {
				resps[i].Explain = tr
			}
		}
		l.met.observeJob(res.Duration, false)
		items[i] = BatchItem{Result: &resps[i]}
	}
	for _, d := range dups {
		i := d.item
		entry := entries[d.job]
		if entry == nil {
			items[i] = BatchItem{Error: results[d.job].Err.Error()}
			l.met.observeError()
			continue
		}
		// The duplicate's latency is its real wall-clock wait: resolve
		// plus the engine run that produced the shared result.
		finishFill(&resps[i], entry, req.Jobs[i].OmitCubes, true, time.Since(starts[i]))
		if req.Debug || req.Jobs[i].Debug {
			resps[i].Explain = entry.Explain
		}
		l.met.observeJob(time.Since(starts[i]), true)
		items[i] = BatchItem{Result: &resps[i]}
	}
	failed := 0
	for _, it := range items {
		if it.Error != "" {
			failed++
		}
	}
	return &BatchResponse{Results: items, Failed: failed}
}

// Grid runs every Table II-IV filler on one set under one ordering.
func (l *Local) Grid(ctx context.Context, req GridRequest) (*GridResponse, error) {
	set, err := l.parseSet(req.Cubes, req.STIL)
	if err != nil {
		return nil, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	ordName := req.Orderer
	if ordName == "" {
		ordName = "tool"
	}
	ord, err := order.ByName(ordName, seed)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	fillers := fill.AllSerial(seed)
	jobs := make([]engine.Job, len(fillers))
	for i, fl := range fillers {
		jobs[i] = engine.Job{
			Name:    fl.Name(),
			Set:     set,
			Orderer: ord,
			Filler:  fl,
			Timeout: l.cfg.MaxTimeout,
		}
	}
	results := l.eng.Run(ctx, jobs)
	if err := engine.FirstErr(results); err != nil {
		l.met.observeError()
		return nil, err
	}
	name := req.Name
	if name == "" {
		name = "set"
	}
	row := exp.PeakRow{
		Ckt:       name,
		Peaks:     make([]int, len(results)),
		Durations: make([]time.Duration, len(results)),
	}
	durs := make([]float64, len(results))
	for i, res := range results {
		row.Peaks[i] = res.Peak
		row.Durations[i] = res.Duration
		durs[i] = float64(res.Duration.Nanoseconds()) / 1e6
		l.met.observeUncachedJob(res.Duration)
	}
	table, err := exp.TableText(func(w io.Writer) error {
		return exp.RenderPeakTable(w, ord.Name(), []exp.PeakRow{row})
	})
	if err != nil {
		return nil, err
	}
	_, best := row.Best()
	return &GridResponse{
		Name:            name,
		Orderer:         ord.Name(),
		FillNames:       exp.FillNames,
		Peaks:           row.Peaks,
		DurationsMillis: durs,
		Best:            exp.FillNames[best],
		Table:           table,
	}, nil
}

// Pipeline executes one pipeline request under ctx's deadline, feeding
// async progress and the per-stage metric families. It is the single
// execution path behind the synchronous endpoint and the async runner,
// mirroring the Batch contract: an async pipeline job replayed after a
// crash re-runs here and produces the identical report (up to stage
// timings).
func (l *Local) Pipeline(ctx context.Context, req pipeline.Request) (*pipeline.Report, error) {
	start := time.Now()
	rep, err := pipeline.Run(ctx, req, pipeline.RunOptions{
		Progress: jobs.Progress(ctx),
		MaxGates: l.cfg.MaxGates,
	})
	if err != nil {
		l.met.observePipelineError()
		return nil, err
	}
	l.met.observePipeline(time.Since(start), rep.Stages)
	return rep, nil
}
