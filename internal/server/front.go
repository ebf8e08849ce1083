package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/jobs"
	prom "repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/reqid"
)

// Backend does the work behind the /v1/* surface. It has two
// implementations: the local engine backend (Local) and the cluster
// coordinator's fleet dispatch. Because every fill algorithm is
// deterministic, both answer the same request identically, and the
// front end cannot tell them apart.
type Backend interface {
	Fill(ctx context.Context, req FillRequest) (*FillResponse, error)
	// Batch isolates per-job failures in the response's items.
	Batch(ctx context.Context, req BatchRequest) *BatchResponse
	Grid(ctx context.Context, req GridRequest) (*GridResponse, error)
	// Pipeline runs under the caller's deadline: the front end has
	// already clamped it to the request's timeout_ms.
	Pipeline(ctx context.Context, req pipeline.Request) (*pipeline.Report, error)
}

// Tier is what one deployment puts behind the shared front end.
type Tier struct {
	Backend Backend
	// Prefix names the tier's metric families: the shared async-job,
	// journal and SLO families are registered as Prefix_*.
	Prefix string
	// Register adds the tier's own metric families. It runs before the
	// job journal replays, so replayed jobs find them wired.
	Register func(*prom.Registry)
	// Health and Stats render the /healthz and /stats answers.
	Health, Stats func() any
	// Run, when set, is a background loop Serve keeps running while it
	// serves (the coordinator's heartbeats).
	Run func(context.Context)
	// JobsStart, when set, holds the async job workers until it is
	// closed.
	JobsStart <-chan struct{}
}

// Front is the HTTP front end both tiers serve: strict size-limited
// decoding, the batch-shape check, one error-to-status mapping, slow
// capture and request IDs, the async job API and the shared metric
// families, over one Backend. Construct with NewFront.
type Front struct {
	cfg  Config
	tier Tier
	jobs *jobs.Manager
	mux  *http.ServeMux
	prom *prom.Registry
	slow *SlowRing
	slo  *prom.SLO
}

// NewFront builds the front end over t. cfg supplies the front-end
// settings: body and batch limits, the pipeline deadline clamp, the
// async job queue, logging and slow capture. With cfg.DataDir set it
// replays the async job journal before returning.
func NewFront(cfg Config, t Tier) (*Front, error) {
	cfg = cfg.WithDefaults()
	f := &Front{cfg: cfg, tier: t}
	if cfg.SlowThreshold > 0 {
		f.slow = NewSlowRing(slowRingSize)
		f.slo = prom.NewSLO(cfg.SlowThreshold, 0)
	}
	// The registry must exist before the job manager: jobs.Open replays
	// the journal immediately, and a replayed job feeds the histograms
	// the tier wires into the registry.
	f.prom = f.newProm()
	// The async runner is the exact path the synchronous endpoints
	// use; determinism of the fill algorithms makes this the crash
	// contract: a job replayed after a kill re-runs here and produces
	// the same cubes, peak and total the lost run would have.
	mgr, err := jobs.Open(jobs.Config{
		Runner:    f.runJob,
		Decode:    decodeJob,
		Dir:       cfg.DataDir,
		MaxQueued: cfg.MaxQueuedJobs,
		Retention: cfg.JobRetention,
		Workers:   cfg.JobWorkers,
		Start:     t.JobsStart,
		Log:       cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	f.jobs = mgr
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fill", serveJSON(f, t.Backend.Fill))
	mux.HandleFunc("POST /v1/batch", serveJSON(f, f.batch))
	mux.HandleFunc("POST /v1/grid", serveJSON(f, t.Backend.Grid))
	mux.HandleFunc("POST /v1/pipeline", serveJSON(f, f.pipeline))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, t.Health())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, t.Stats())
	})
	mux.Handle("GET /metrics", f.prom.Handler())
	jobs.Mount(mux, mgr, f.decodeJobSubmit)
	f.mux = mux
	return f, nil
}

// Close stops the async job workers and the journal. Jobs still
// queued or running stay accepted in the journal and resume on the
// next start over the same DataDir. Serve calls Close on shutdown;
// Handler-only embedders (tests, custom muxes) call it themselves.
func (f *Front) Close() error { return f.jobs.Close() }

// Handler returns the service's HTTP handler, for embedding under a
// custom mux or an httptest server. Every request passes through
// reqid.Middleware: an incoming X-Request-ID is echoed in the response
// (and minted when absent), carried on the request context — and so
// forwarded to every worker a coordinator dispatches to — and written
// to the access log when Config.Log is set. Inside the tracing layer,
// CaptureSlow measures every /v1/* request against the SLO threshold
// and snapshots breaches into the slow-request ring.
func (f *Front) Handler() http.Handler {
	return reqid.Middleware(f.cfg.Log, CaptureSlow(f.slow, f.slo, f.mux))
}

// Metrics returns the tier's Prometheus scrape handler, for mounting
// on an admin mux (-debug-addr) alongside pprof.
func (f *Front) Metrics() http.Handler { return f.prom.Handler() }

// SlowRequests returns the captured SLO breaches, newest first; nil
// when slow capture is disabled or nothing has breached yet.
func (f *Front) SlowRequests() []SlowRequest { return f.slow.Snapshot() }

// Serve accepts connections on l until ctx is cancelled, then shuts
// down gracefully: in-flight requests get ShutdownGrace to finish and
// the async job workers are stopped (journaled jobs resume on the
// next start). It returns nil after a clean shutdown.
func (f *Front) Serve(ctx context.Context, l net.Listener) error {
	defer f.Close()
	if f.tier.Run != nil {
		rctx, stop := context.WithCancel(ctx)
		defer stop()
		go f.tier.Run(rctx)
	}
	hs := &http.Server{
		Handler:           f.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), f.cfg.ShutdownGrace)
		defer cancel()
		err := hs.Shutdown(sctx)
		if serveErr := <-errc; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
			err = serveErr
		}
		return err
	}
}

// ListenAndServe binds addr and calls Serve.
func (f *Front) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return f.Serve(ctx, l)
}

// serveJSON adapts one backend call to a handler: decode the request,
// run it, answer the result or the mapped error.
func serveJSON[Req, Resp any](f *Front, run func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !f.decode(w, r, &req) {
			return
		}
		resp, err := run(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// batch answers POST /v1/batch after the shape check.
func (f *Front) batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	if err := f.validateBatch(req); err != nil {
		return nil, err
	}
	return f.tier.Backend.Batch(ctx, req), nil
}

// validateBatch applies the batch shape limits shared by the
// synchronous handler and async job submission.
func (f *Front) validateBatch(req BatchRequest) error {
	if len(req.Jobs) == 0 {
		return badRequestf("batch carries no jobs")
	}
	if len(req.Jobs) > f.cfg.MaxBatchJobs {
		return badRequestf("%d jobs exceed the batch limit %d", len(req.Jobs), f.cfg.MaxBatchJobs)
	}
	return nil
}

// pipeline runs one pipeline request under its clamped deadline: the
// one clamp both backends share, for the synchronous endpoint and the
// async runner alike, so a coordinator's merge and finish stages are
// bounded exactly like a worker's run.
func (f *Front) pipeline(ctx context.Context, req pipeline.Request) (*pipeline.Report, error) {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.clampTimeout(req.TimeoutMillis))
	defer cancel()
	return f.tier.Backend.Pipeline(ctx, req)
}

// jobSubmit is the POST /v1/jobs body, and the request an async job
// runs: either a batch (the same schema and limits as POST /v1/batch)
// or one pipeline run, never both. Its canonical encoding is the
// journaled payload: {"jobs": ...} for a batch, {"pipeline": ...} for
// a pipeline run, so one WAL carries both job types and journals that
// predate pipeline jobs replay unchanged. The strict decoder rejects
// unknown fields, so a batch payload cannot smuggle a "pipeline" key
// past validation.
type jobSubmit struct {
	Jobs  []FillRequest `json:"jobs,omitempty"`
	Debug bool          `json:"debug,omitempty"`
	// Pipeline submits one full netlist→ATPG→fill→power run instead
	// of a batch of fill jobs.
	Pipeline *pipeline.Request `json:"pipeline,omitempty"`
}

// decodeJobSubmit validates a POST /v1/jobs body and returns the job:
// its canonical journal payload, the request the runner takes, and its
// work-item count. Per-job resolution errors are not checked here:
// they surface in the job's result, exactly as the synchronous
// endpoints report them.
func (f *Front) decodeJobSubmit(w http.ResponseWriter, r *http.Request) (jobs.Submission, bool) {
	var req jobSubmit
	if !f.decode(w, r, &req) {
		return jobs.Submission{}, false
	}
	sub, err := f.jobPayload(req)
	if err != nil {
		writeError(w, err)
		return jobs.Submission{}, false
	}
	return sub, true
}

func (f *Front) jobPayload(req jobSubmit) (jobs.Submission, error) {
	total := len(req.Jobs)
	if req.Pipeline != nil {
		if len(req.Jobs) > 0 {
			return jobs.Submission{}, badRequestf("submit carries both jobs and a pipeline; pick one")
		}
		if err := req.Pipeline.Validate(); err != nil {
			return jobs.Submission{}, err
		}
		req, total = jobSubmit{Pipeline: req.Pipeline}, req.Pipeline.Steps()
	} else if err := f.validateBatch(BatchRequest{Jobs: req.Jobs}); err != nil {
		return jobs.Submission{}, err
	}
	payload, err := marshalJSON(req)
	return jobs.Submission{Payload: payload, Req: req, Total: total}, err
}

// decodeJob rebuilds a replayed job's request from its journaled
// payload with the strict decoder the submit path uses.
func decodeJob(payload json.RawMessage) (any, error) {
	var req jobSubmit
	err := decodeStrict(payload, &req)
	return req, err
}

// runJob is the async job runner. A pipeline job failure fails the
// whole job (there are no per-item slots to isolate it into, unlike a
// batch).
func (f *Front) runJob(ctx context.Context, req any) (json.RawMessage, error) {
	job, ok := req.(jobSubmit)
	if !ok {
		return nil, fmt.Errorf("server: async job request is a %T", req)
	}
	var out any
	if job.Pipeline != nil {
		rep, err := f.pipeline(ctx, *job.Pipeline)
		if err != nil {
			return nil, err
		}
		out = rep
	} else {
		out = f.tier.Backend.Batch(ctx, BatchRequest{Jobs: job.Jobs, Debug: job.Debug})
	}
	data, err := marshalJSON(out)
	if err != nil {
		return nil, fmt.Errorf("encoding job result: %w", err)
	}
	return data, nil
}

// decode reads a size-limited, strict JSON body into v, answering the
// error itself (and returning false) on failure.
func (f *Front) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes)
	data, err := readBody(r.Body, r.ContentLength, f.cfg.MaxBodyBytes)
	if err == nil {
		err = decodeStrict(data, v)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return false
		}
		// dpvet:ignore errwrap decode-error detail is the 400 contract: callers debug their own malformed bodies
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed JSON: " + err.Error()})
		return false
	}
	return true
}

// StatusError is an error that names its own HTTP answer. A
// coordinator classifies fleet failures with it: an empty fleet is
// 503, a transport or protocol failure 502, and a worker's error
// answer passes through with the worker's own status and message.
type StatusError struct {
	Status int
	// Message is the answer's error text; empty means Err's.
	Message string
	Err     error
}

func (e *StatusError) Error() string { return e.Err.Error() }

func (e *StatusError) Unwrap() error { return e.Err }

// writeError is the one error-to-status mapping: a StatusError answers
// as it says, validation failures are 400, deadline overruns 504,
// client disconnects 499 (nginx's convention), anything else 422 (the
// job itself failed).
func writeError(w http.ResponseWriter, err error) {
	status, msg := http.StatusUnprocessableEntity, err.Error()
	var se *StatusError
	var bad badRequestError
	switch {
	case errors.As(err, &se):
		status = se.Status
		if se.Message != "" {
			msg = se.Message
		}
	case errors.As(err, &bad), errors.Is(err, pipeline.ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499
	}
	writeJSON(w, status, errorResponse{Error: msg})
}

// writeJSON answers status with v's JSON encoding and a newline, as
// json.Encoder writes it with HTML escaping off. Bodies the fast
// encoder covers are built in a pooled buffer and written at once.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	body, ok := encodeFast((*bp)[:0], v, false)
	if ok {
		body = append(body, '\n')
	}
	*bp = body[:0]
	if ok {
		_, _ = w.Write(body)
		return
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
