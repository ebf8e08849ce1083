package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// sseEvent is one parsed event of a text/event-stream response.
type sseEvent struct {
	name string
	st   Status
}

// readSSE consumes a watch stream until it ends, returning every
// event. The deadline guards against a stream that never terminates —
// the test's whole point is that it does.
func readSSE(t *testing.T, url string) []sseEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("watch: content type %q", ct)
	}
	var events []sseEvent
	var current string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			current = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var st Status
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
			events = append(events, sseEvent{name: current, st: st})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return events
}

// TestWatchStreamsLifecycleOverSSE pins the streaming contract: one
// GET /v1/jobs/{id}?watch=1 request delivers queued/running state
// events, mid-run progress events, and the terminal event carrying the
// result — then the stream ends. No polling anywhere.
func TestWatchStreamsLifecycleOverSSE(t *testing.T) {
	release := make(chan struct{})
	m, err := Open(Config{Runner: func(ctx context.Context, req any) (json.RawMessage, error) {
		<-release
		Progress(ctx)(1)
		return req.(json.RawMessage), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	url := mountTestAPI(t, m)

	var st Status
	if code := httpJSON(t, http.MethodPost, url+"/v1/jobs", `{"work":1}`, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := make(chan []sseEvent, 1)
	go func() { done <- readSSE(t, url+"/v1/jobs/"+st.ID+"?watch=1") }()
	// Give the watcher a moment to subscribe, then let the job run.
	time.Sleep(20 * time.Millisecond)
	close(release)

	events := <-done
	if len(events) == 0 {
		t.Fatal("stream delivered no events")
	}
	last := events[len(events)-1]
	if last.name != "state" || last.st.State != StateDone {
		t.Fatalf("stream did not end on a terminal state event: %+v", last)
	}
	if string(last.st.Result) != `{"work":1}` {
		t.Fatalf("terminal event carried result %q", last.st.Result)
	}
	sawProgress := false
	for _, ev := range events {
		if ev.name == "progress" && ev.st.Done == 1 && !ev.st.State.Terminal() {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatalf("no mid-run progress event in %+v", events)
	}
}

// TestWatchSettledJobStreamsOneTerminalEvent: watching an already
// settled job answers immediately with its terminal snapshot.
func TestWatchSettledJobStreamsOneTerminalEvent(t *testing.T) {
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	url := mountTestAPI(t, m)
	var st Status
	httpJSON(t, http.MethodPost, url+"/v1/jobs", `{"work":2}`, &st)
	waitState(t, m, st.ID, StateDone)

	events := readSSE(t, url+"/v1/jobs/"+st.ID+"?watch=1")
	if len(events) != 1 {
		t.Fatalf("settled job streamed %d events, want 1: %+v", len(events), events)
	}
	if events[0].st.State != StateDone || events[0].st.Result == nil {
		t.Fatalf("terminal snapshot: %+v", events[0])
	}
}

// TestWatchUnknownJobAnswers404 keeps the error contract on the watch
// branch identical to the plain GET.
func TestWatchUnknownJobAnswers404(t *testing.T) {
	m, err := Open(Config{Runner: (&echoRunner{}).run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	url := mountTestAPI(t, m)
	var out map[string]string
	if code := httpJSON(t, http.MethodGet, url+"/v1/jobs/ghost?watch=1", "", &out); code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
}

// TestSubmitHTTPDedupesOnIdempotencyKey: two POSTs with the same
// X-Idempotency-Key answer the same job.
func TestSubmitHTTPDedupesOnIdempotencyKey(t *testing.T) {
	m, err := Open(Config{Runner: (&echoRunner{}).run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	url := mountTestAPI(t, m)

	submit := func() Status {
		req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(`{"work":3}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(IdempotencyHeader, "http-key")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := submit(), submit()
	if a.ID != b.ID {
		t.Fatalf("same key minted two jobs: %s, %s", a.ID, b.ID)
	}
	if got := len(m.List().Jobs); got != 1 {
		t.Fatalf("%d jobs retained, want 1", got)
	}
}
