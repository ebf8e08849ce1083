package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRecordEncodingMatchesMarshal: the spliced journal line of every
// record shape is byte-identical to json.Marshal of the whole record,
// including payloads and strings json.Marshal escapes (<, &, > and
// U+2028).
func TestRecordEncodingMatchesMarshal(t *testing.T) {
	tricky := "a<&>\u2028b"
	payload, err := json.Marshal(map[string]any{"jobs": []string{tricky, "0X1"}, "n": 3})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 5, 6, 7, 8, 9, 123456789, time.UTC)
	for _, rec := range []record{
		{Op: "accept", ID: "a1", Key: tricky, Rid: "r<1>", Created: at, Total: 2, Payload: payload},
		{Op: "accept", ID: "a2", Created: at},
		{Op: "done", ID: "a1", Finished: at, Result: payload},
		{Op: "fail", ID: "a1", Finished: at, Error: tricky},
		{Op: "cancel", ID: "a1", Finished: at},
	} {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want)+"\n" {
			t.Errorf("%s record encodes as\n%s\nwant\n%s", rec.Op, got, want)
		}
	}
}

// TestSubmitRefusesRawNewline: a payload whose raw newline would split
// its journal record is refused, and nothing reaches the journal.
func TestSubmitRefusesRawNewline(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Runner: (&echoRunner{}).run, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit(rawJob(json.RawMessage("{\n}"), 1), "", ""); err == nil {
		t.Fatal("payload with a raw newline accepted")
	}
	if n := m.WALAppends(); n != 0 {
		t.Fatalf("refused submit appended %d journal records", n)
	}
	if _, err := m.Submit(rawJob(json.RawMessage(`{}`), 1), "", ""); err != nil {
		t.Fatalf("admission slot leaked by the refused submit: %v", err)
	}
}

// TestJobDecodedOnce: a live job runs the request its submit decoded,
// with no decode after the submit; a replayed job is decoded once, at
// Open, before any worker starts, and runs that request.
func TestJobDecodedOnce(t *testing.T) {
	dir := t.TempDir()
	var submitDecodes, journalDecodes atomic.Int64
	type request struct{ payload string }
	var submitted, ran atomic.Pointer[request]
	decodeBody := func(w http.ResponseWriter, r *http.Request) (Submission, bool) {
		submitDecodes.Add(1)
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r.Body); err != nil {
			return Submission{}, false
		}
		req := &request{buf.String()}
		submitted.Store(req)
		return Submission{Payload: buf.Bytes(), Req: req, Total: 1}, true
	}
	decodeJournal := func(payload json.RawMessage) (any, error) {
		journalDecodes.Add(1)
		return &request{string(payload)}, nil
	}
	run := func(_ context.Context, req any) (json.RawMessage, error) {
		r := req.(*request)
		ran.Store(r)
		return json.RawMessage(r.payload), nil
	}

	// Live: Mount's decoder runs once per submit, the journal decoder
	// never, and the runner gets the submit's own request value.
	m, err := Open(Config{Runner: run, Decode: decodeJournal, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if code := httpJSON(t, http.MethodPost, mountTestAPIWith(t, m, decodeBody)+"/v1/jobs", `{"live":1}`, &st); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitState(t, m, st.ID, StateDone)
	if string(done.Result) != `{"live":1}` || submitDecodes.Load() != 1 || journalDecodes.Load() != 0 {
		t.Fatalf("live job: result %s, %d submit decodes, %d journal decodes; want 1 and 0",
			done.Result, submitDecodes.Load(), journalDecodes.Load())
	}
	if ran.Load() != submitted.Load() {
		t.Fatal("live job ran a request other than the one its submit decoded")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay: two jobs left unsettled by a manager whose workers never
	// started are decoded at Open, once each, and not again to run.
	gated, err := Open(Config{Runner: run, Decode: decodeJournal, Dir: dir, Start: make(chan struct{})})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, p := range []string{`{"replay":1}`, `{"replay":2}`} {
		st, err := gated.Submit(Submission{Payload: json.RawMessage(p), Req: &request{p}, Total: 1}, "", "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if err := gated.Close(); err != nil {
		t.Fatal(err)
	}
	journalDecodes.Store(0)
	start := make(chan struct{})
	m2, err := Open(Config{Runner: run, Decode: decodeJournal, Dir: dir, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if n := journalDecodes.Load(); n != 2 {
		t.Fatalf("Open decoded %d replayed jobs, want 2", n)
	}
	close(start)
	for i, id := range ids {
		if st := waitState(t, m2, id, StateDone); string(st.Result) != `{"replay":`+string(rune('1'+i))+`}` {
			t.Fatalf("replayed job %d answered %s", i, st.Result)
		}
	}
	if n := journalDecodes.Load(); n != 2 {
		t.Fatalf("replayed jobs decoded %d times in all, want 2", n)
	}
}

// TestReplayDecodeFailureFailsJob: a journaled payload the decoder
// refuses fails its job with the journal decode error; the runner never
// sees it.
func TestReplayDecodeFailureFailsJob(t *testing.T) {
	dir := t.TempDir()
	gated, err := Open(Config{Runner: (&echoRunner{}).run, Dir: dir, Start: make(chan struct{})})
	if err != nil {
		t.Fatal(err)
	}
	st, err := gated.Submit(rawJob(json.RawMessage(`"broken"`), 1), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := gated.Close(); err != nil {
		t.Fatal(err)
	}
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run, Dir: dir, Decode: func(json.RawMessage) (any, error) {
		return nil, errors.New("unreadable")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	failed := waitState(t, m, st.ID, StateFailed)
	if failed.Error != "decoding journaled job payload: unreadable" || r.calls.Load() != 0 {
		t.Fatalf("job failed with %q after %d runner calls", failed.Error, r.calls.Load())
	}
}

// TestCompactionDropsSettledPayloads: 600 settled jobs of 1.26 MB each
// leave no settled payload in memory or in a compacted journal. Before
// settled accepts were compacted without their payloads, the online
// compaction rewrote every retained payload (about 320 MB) under the
// journal lock, stalling the submit that triggered it for seconds.
func TestCompactionDropsSettledPayloads(t *testing.T) {
	dir := t.TempDir()
	const jobs, size = 600, 1260 << 10
	marker := "settled-payload-"
	payload, err := json.Marshal(marker + strings.Repeat("X", size))
	if err != nil {
		t.Fatal(err)
	}
	small := func(_ context.Context, _ any) (json.RawMessage, error) { return json.RawMessage(`{}`), nil }
	m, err := Open(Config{Runner: small, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		st, err := m.Submit(rawJob(payload, 1), "", "")
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, StateDone)
	}
	m.mu.Lock()
	for _, j := range m.jobs {
		if j.payload != nil || j.req != nil {
			t.Errorf("settled job %s still holds its request", j.id)
		}
	}
	m.mu.Unlock()
	// One online compaction has run (at 1025 appends); only the jobs
	// settled after it still have their accepts in the journal.
	if n := m.JournalBytes(); n > 128*int64(len(payload)) {
		t.Errorf("journal holds %d bytes after compaction: settled payloads were rewritten", n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Config{Runner: small, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(marker)) {
		t.Fatalf("compacted journal (%d bytes) still holds settled payloads", len(data))
	}
}
