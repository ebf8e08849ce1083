package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/jobs"
)

// journalFixtureBodies are the POST /v1/jobs bodies that wrote
// testdata/journal/jobs.wal, in journal order: a batch that settled
// before the journal was copied (one job's name holds <&> and U+2028,
// which the payload carries escaped), then a batch and a pipeline run
// accepted by a manager whose workers never started.
var journalFixtureBodies = []struct{ name, body string }{
	{"settled", `{"jobs":[{"name":"a","cubes":["0X1XX0","XXXX11","1X0X0X"],"orderer":"i"},{"name":"<&>` + "\u2028" + `","cubes":["1XX0","X0X1","XX11"],"filler":"mt"}]}`},
	{"batch", `{"jobs":[{"cubes":["01XX","X10X","XX01"]},{"name":"bad","cubes":["0z"]}],"debug":false}`},
	{"pipeline", `{"pipeline":{"spec":"b01","filler":"mt"}}`},
}

// replayTimings zeroes what a re-run measures afresh.
var replayTimings = regexp.MustCompile(`"(duration_ms|started_at|finished_at)":("[^"]*"|[-0-9.e+]+)`)

// getRaw answers a GET with its body compacted.
func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := json.Compact(&out, body); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return out.Bytes()
}

// journalPayloads returns the payload of every accept record in the
// journal file at path, in order.
func journalPayloads(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Op      string          `json:"op"`
			Payload json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Op == "accept" {
			out = append(out, string(rec.Payload))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJournalFixtureReplays: a journal written by the version that
// decoded each job's payload again to run it replays to the statuses
// and results that version answered. The settled job answers from its
// journal records byte for byte; the unsettled batch and pipeline jobs
// re-run to the same results up to timings.
func TestJournalFixtureReplays(t *testing.T) {
	dir := t.TempDir()
	wal, err := os.ReadFile(filepath.Join("testdata", "journal", "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "journal", "replayed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	for _, fx := range journalFixtureBodies {
		var w bytes.Buffer
		if err := json.Compact(&w, want[fx.name]); err != nil {
			t.Fatal(err)
		}
		var st jobs.Status
		if err := json.Unmarshal(w.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		waitJobState(t, ts.URL, st.ID, st.State)
		got := getRaw(t, ts.URL+"/v1/jobs/"+st.ID)
		wantBytes := w.Bytes()
		if fx.name != "settled" {
			got = replayTimings.ReplaceAll(got, []byte(`"$1":0`))
			wantBytes = replayTimings.ReplaceAll(wantBytes, []byte(`"$1":0`))
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("%s job replayed as\n%s\nwant\n%s", fx.name, got, wantBytes)
		}
	}
}

// TestJournalPayloadsMatchFixture: the same submits journal the same
// payload bytes the fixture's writer did.
func TestJournalPayloadsMatchFixture(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	for _, fx := range journalFixtureBodies {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(fx.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s submit: status %d", fx.name, resp.StatusCode)
		}
	}
	got := journalPayloads(t, filepath.Join(dir, "jobs.wal"))
	want := journalPayloads(t, filepath.Join("testdata", "journal", "jobs.wal"))
	if len(got) != len(want) {
		t.Fatalf("journaled %d accepts, fixture has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s payload\n%s\nwant\n%s", journalFixtureBodies[i].name, got[i], want[i])
		}
	}
}

// TestJournalUndecodablePayloadFailsJob: replay decodes a payload
// with the strict decoder submits use, and a payload it refuses fails
// its job with the journal decode error instead of running.
func TestJournalUndecodablePayloadFailsJob(t *testing.T) {
	dir := t.TempDir()
	line := `{"op":"accept","id":"bad","created":"2026-01-02T03:04:05Z","total":1,"payload":{"jobs":[{"cubes":["0X1"],"bogus":1}]}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	bad := waitJobState(t, ts.URL, "bad", jobs.StateFailed)
	if want := `decoding journaled job payload: json: unknown field "bogus"`; bad.Error != want {
		t.Fatalf("undecodable job failed with %q, want %q", bad.Error, want)
	}
}
