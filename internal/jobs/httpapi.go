package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/reqid"
)

// IdempotencyHeader carries the client-minted submit idempotency key:
// a POST /v1/jobs resent with the same key (a retry after a lost
// response) answers with the originally accepted job instead of
// minting a duplicate.
const IdempotencyHeader = "X-Idempotency-Key"

// DecodeSubmit validates a POST /v1/jobs body against the host
// service's own limits and schema and returns the decoded job: its
// canonical payload to journal, its request and its work-item count.
// It is the only decode a submitted job gets. On failure it must
// answer the request itself and return ok=false.
type DecodeSubmit func(w http.ResponseWriter, r *http.Request) (sub Submission, ok bool)

// Mount registers the async job API on mux:
//
//	POST   /v1/jobs              submit, answers 202 + the queued snapshot
//	GET    /v1/jobs              list retained jobs, newest first
//	GET    /v1/jobs/{id}         status/progress/result
//	GET    /v1/jobs/{id}?watch=1 SSE stream of state/progress events
//	DELETE /v1/jobs/{id}         cancel
//
// The error payload shape ({"error": "..."}) matches the rest of the
// /v1/* surface, so clients need exactly one error decoder.
func Mount(mux *http.ServeMux, m *Manager, decode DecodeSubmit) {
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		sub, ok := decode(w, r)
		if !ok {
			return
		}
		st, err := m.Submit(sub, r.Header.Get(IdempotencyHeader), reqid.From(r.Context()))
		if err != nil {
			writeJobError(w, err)
			return
		}
		writeJobJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		writeJobJSON(w, http.StatusOK, m.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("watch") != "" {
			watchJob(w, r, m)
			return
		}
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeJobError(w, err)
			return
		}
		writeJobJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeJobError(w, err)
			return
		}
		writeJobJSON(w, http.StatusOK, st)
	})
}

// watchJob serves GET /v1/jobs/{id}?watch=1 as a Server-Sent Events
// stream: one "state" event per lifecycle transition, one "progress"
// event per done-count advance, ending after the terminal event (which
// carries the job's result like GET /v1/jobs/{id} does). Clients that
// cannot stream keep polling the plain GET — the two views never
// disagree, they are snapshots of the same job.
func watchJob(w http.ResponseWriter, r *http.Request, m *Manager) {
	ch, cancel, err := m.Watch(r.PathValue("id"))
	if err != nil {
		writeJobError(w, err)
		return
	}
	defer cancel()
	flusher, ok := w.(http.Flusher)
	if !ok {
		// No streaming support in the transport: degrade to the
		// polling snapshot rather than buffering an endless stream.
		st, gerr := m.Get(r.PathValue("id"))
		if gerr != nil {
			writeJobError(w, gerr)
			return
		}
		writeJobJSON(w, http.StatusOK, st)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	var lastState State
	for {
		select {
		case st, open := <-ch:
			if !open {
				// The manager shut down before the job settled; end the
				// stream so the client falls back to polling.
				return
			}
			event := "progress"
			if st.State != lastState {
				event, lastState = "state", st.State
			}
			data, jerr := json.Marshal(st)
			if jerr != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
			flusher.Flush()
			if st.State.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// writeJobError maps manager sentinels to HTTP statuses: full queue
// 429, unknown job 404, settled job 409, closed manager 503, anything
// else (journal I/O) 500.
func writeJobError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrTerminal):
		status = http.StatusConflict
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJobJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJobJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
