package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/reqid"
	"repro/internal/server"
)

// async-long: one worker with a job journal in a temporary data dir.
// Each client submits POST /v1/jobs carrying four long sequences (256
// pins × 1200 vectors at 85% X, omit_cubes) and follows the job's SSE
// watch stream until its terminal event. The pool's sequences outnumber
// the worker's result cache and are cycled, so every fill misses it.
const (
	asyncPool    = 6
	asyncSeqs    = 4
	asyncPins    = 256
	asyncVectors = 1200
	asyncX       = 0.85
	asyncCache   = 8
)

type asyncLong struct {
	cases  [][]*fillCase
	sync   [][]*server.FillResponse // the synchronous answer to each job
	bodies [2][][]byte              // [0] plain, [1] with "debug":true
}

func (w *asyncLong) poolSize() int { return len(w.cases) }

// generate builds the jobs and takes each job's synchronous answer from
// an in-process worker with its cache off, through the same handler
// POST /v1/batch serves.
func (w *asyncLong) generate(seed int64) error {
	r := newRand(seed, 4)
	ref, err := server.New(server.Config{CacheSize: -1})
	if err != nil {
		return err
	}
	defer ref.Close()
	h := ref.Handler()
	for range asyncPool {
		cases := make([]*fillCase, asyncSeqs)
		reqs := make([]server.FillRequest, asyncSeqs)
		for k := range cases {
			fc, err := newFillCase(randomCubes(r, asyncVectors, asyncPins, asyncX), "tool")
			if err != nil {
				return err
			}
			cases[k] = fc
			reqs[k] = server.FillRequest{Cubes: fc.cubes, Orderer: "tool", Filler: "dp", OmitCubes: true}
		}
		body := mustJSON(server.BatchRequest{Jobs: reqs})
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("sync reference batch answered %d: %.200s", rr.Code, rr.Body.Bytes())
		}
		var resp server.BatchResponse
		if err := decodeJSON(rr.Body.Bytes(), "sync reference answer", &resp); err != nil {
			return err
		}
		// A reference that misses the bound is still the answer async
		// jobs must reproduce; the timed answers fail on the bound.
		answers, err := batchItems(&resp, cases, true, nil)
		if !legal(err) {
			return fmt.Errorf("sync reference answer: %w", err)
		}
		w.cases = append(w.cases, cases)
		w.sync = append(w.sync, answers)
		w.bodies[0] = append(w.bodies[0], body)
		w.bodies[1] = append(w.bodies[1], mustJSON(server.BatchRequest{Jobs: reqs, Debug: true}))
	}
	return nil
}

// batchItems checks every item of a batch answer against its case,
// tallies the legal fills in rec (which may be nil), and returns the
// items with the first failure.
func batchItems(resp *server.BatchResponse, cases []*fillCase, omitted bool, rec *record) ([]*server.FillResponse, error) {
	if len(resp.Results) != len(cases) || resp.Failed != 0 {
		return nil, fmt.Errorf("batch answered %d results with %d failed, want %d results", len(resp.Results), resp.Failed, len(cases))
	}
	out := make([]*server.FillResponse, len(cases))
	var first error
	for k, it := range resp.Results {
		if it.Result == nil {
			return nil, fmt.Errorf("batch job %d failed: %s", k, it.Error)
		}
		err := checkFill(cases[k], it.Result, omitted)
		if legal(err) && rec != nil {
			rec.addFill(it.Result.Peak, cases[k].bound)
		}
		if err != nil && first == nil {
			first = fmt.Errorf("batch job %d: %w", k, err)
		}
		out[k] = it.Result
	}
	return out, first
}

func (w *asyncLong) start(ctx context.Context, c *http.Client, dir string) (*tiers, error) {
	data, err := os.MkdirTemp(dir, "jobs-")
	if err != nil {
		return nil, err
	}
	t := &tiers{dir: data}
	s, err := server.New(server.Config{DataDir: data, CacheSize: asyncCache})
	if err != nil {
		t.close()
		return nil, err
	}
	if t.base, err = t.serve(s); err != nil {
		s.Close()
		t.close()
		return nil, err
	}
	t.scraped = []string{t.base}
	if err := waitHealthy(ctx, c, t.base, nil); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (w *asyncLong) do(ctx context.Context, c *http.Client, t *tiers, i int, rec *record) error {
	body := w.bodies[0][i]
	if rec.traced {
		body = w.bodies[1][i]
	}
	t0 := time.Now()
	data, err := post(ctx, c, t.base+"/v1/jobs", body, rec.rid, http.StatusAccepted)
	ack := time.Now()
	if err != nil {
		return err
	}
	var st jobs.Status
	if err := decodeJSON(data, "job submit answer", &st); err != nil {
		return err
	}
	final, size, err := watchJob(ctx, c, t.base+"/v1/jobs/"+st.ID+"?watch=1", rec.rid)
	rec.latency = time.Since(t0)
	if err != nil {
		return err
	}
	if final.State != jobs.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	var resp server.BatchResponse
	if err := decodeJSON(final.Result, "job result", &resp); err != nil {
		return err
	}
	items, err := batchItems(&resp, w.cases[i], true, rec)
	if err != nil {
		return err
	}
	for k, it := range items {
		if err := checkSame(it, w.sync[i][k]); err != nil {
			return fmt.Errorf("job item %d: %w", k, err)
		}
	}
	if !rec.traced {
		return nil
	}
	return w.trace(rec, final, items, t0, ack, len(data)+size)
}

// trace builds the request's span tree from the job's lifecycle
// timestamps: the submit until the job starts or is acknowledged,
// whichever comes first; queueing after the acknowledgement; the run,
// with the engine's fills inside on GOMAXPROCS lanes; and the rest, the
// event stream, as the request's own time.
func (w *asyncLong) trace(rec *record, final *jobs.Status, items []*server.FillResponse, sent, ack time.Time, size int) error {
	l := rec.layers
	root := newSpan("request", rec.latency)
	started := final.StartedAt
	if ack.Before(started) {
		started = ack
	}
	root.add(newSpan("jobs.submit", started.Sub(sent)))
	root.add(newSpan("jobs.queue", max(0, final.StartedAt.Sub(ack))))
	run := root.add(newSpan("jobs.run", final.FinishedAt.Sub(final.StartedAt)))
	run.Lanes = runtime.GOMAXPROCS(0)
	var firstErr error
	for _, it := range items {
		if it.Cached {
			continue
		}
		js, err := jobSpan(it)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		run.add(js)
		fillResponseLayers(l, it)
	}
	rec.root = root
	l.mean("jobs.submit_ms", durMS(ack.Sub(sent)))
	l.mean("jobs.queue_ms", durMS(final.StartedAt.Sub(final.CreatedAt)))
	l.mean("jobs.run_ms", durMS(final.FinishedAt.Sub(final.StartedAt)))
	l.mean("server.http_ms", durMS(root.other()))
	l.mean("server.response_kb", kib(size))
	return firstErr
}

// watchJob follows a job's SSE watch stream until its terminal event and
// returns that event's snapshot and the bytes the stream carried.
func watchJob(ctx context.Context, c *http.Client, url, rid string) (*jobs.Status, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set(reqid.Header, rid)
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%w %d from %s", errStatus, resp.StatusCode, url)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	size := 0
	for sc.Scan() {
		line := sc.Text()
		size += len(line) + 1
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var st jobs.Status
		if err := decodeJSON([]byte(data), "job event", &st); err != nil {
			return nil, size, err
		}
		if st.State.Terminal() {
			return &st, size, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, size, fmt.Errorf("reading job events: %w", err)
	}
	return nil, size, fmt.Errorf("job event stream ended before a terminal event")
}

func (w *asyncLong) replay(l *layers) error {
	var cases []*fillCase
	for _, cs := range w.cases {
		cases = append(cases, cs...)
	}
	// Jobs run one at a time; each offers its four fills to the
	// GOMAXPROCS-wide engine in one Run call.
	return replayFills(l, cases, engineShape{workers: runtime.GOMAXPROCS(0), callers: 1, jobsPerCall: asyncSeqs})
}
