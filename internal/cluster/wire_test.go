package cluster

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

var updateWire = flag.Bool("update-wire", false, "rewrite the wire-parity goldens under testdata/wire")

// wireCase is one request of the wire-parity corpus. A settle case is
// a job submit: its golden also holds the job's settled GET answer.
type wireCase struct {
	name, method, path, body string
	settle                   bool
}

// wireCases is the corpus every tier answers: each /v1/* endpoint's
// success path plus the error classes of the shared front end. The
// successes use distinct cube sets, so no answer depends on which
// worker's result cache an earlier request warmed.
func wireCases() []wireCase {
	tooMany := strings.TrimSuffix(strings.Repeat("{},", 257), ",")
	return []wireCase{
		{name: "healthz", method: http.MethodGet, path: "/healthz"},
		{name: "fill", path: "/v1/fill", body: `{"name":"f","cubes":["0XX1X0","X1X0XX","1XXX01","XX0X1X"],"orderer":"i","filler":"dp"}`},
		{name: "fill-omit", path: "/v1/fill", body: `{"cubes":["1X0X","X01X","0XX1"],"filler":"adj","omit_cubes":true}`},
		{name: "batch", path: "/v1/batch", body: `{"jobs":[{"name":"a","cubes":["0X1X","XX01"]},{"name":"b","cubes":["1XX0","X0X1","XX11"],"filler":"mt"},{"name":"bad","cubes":["0z"]},{"name":"twin-1","cubes":["X0X1X","1XX0X"]},{"name":"twin-2","cubes":["X0X1X","1XX0X"]}]}`},
		{name: "grid", path: "/v1/grid", body: `{"name":"g","cubes":["0XX0XX","XX1XX0","1XXX0X"]}`},
		{name: "pipeline-sharded", path: "/v1/pipeline", body: `{"spec":"b01","atpg":{"shards":2},"include_cubes":true}`},
		{name: "pipeline", path: "/v1/pipeline", body: `{"spec":"b02"}`},
		{name: "jobs-batch", path: "/v1/jobs", body: `{"jobs":[{"cubes":["01XX","X10X","XX01"]}]}`, settle: true},
		{name: "jobs-pipeline", path: "/v1/jobs", body: `{"pipeline":{"spec":"b02","filler":"mt"}}`, settle: true},
		{name: "err-malformed", path: "/v1/fill", body: `{"cubes":`},
		{name: "err-unknown-field", path: "/v1/fill", body: `{"cubes":["0X"],"bogus":1}`},
		{name: "err-body-too-large", path: "/v1/fill", body: `{"cubes":["` + strings.Repeat("X", 8<<20) + `"]}`},
		{name: "err-batch-empty", path: "/v1/batch", body: `{"jobs":[]}`},
		{name: "err-batch-too-many", path: "/v1/batch", body: `{"jobs":[` + tooMany + `]}`},
		{name: "err-cubes-and-stil", path: "/v1/fill", body: `{"cubes":["0X"],"stil":"x"}`},
		{name: "err-unknown-filler", path: "/v1/fill", body: `{"cubes":["0X"],"filler":"nope"}`},
		{name: "err-window-non-dp", path: "/v1/fill", body: `{"cubes":["0X","X1"],"filler":"mt","window":4}`},
		{name: "err-grid-orderer", path: "/v1/grid", body: `{"cubes":["0X"],"orderer":"nope"}`},
		{name: "err-pipeline-no-input", path: "/v1/pipeline", body: `{}`},
		{name: "err-jobs-both", path: "/v1/jobs", body: `{"jobs":[{"cubes":["0X"]}],"pipeline":{"spec":"b01"}}`},
		{name: "err-jobs-malformed", path: "/v1/jobs", body: `[`},
	}
}

// wireTimings zeroes what is measured rather than computed, and the
// job identity a submit mints; everything else must match byte for
// byte.
var wireTimings = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(duration_ms|[a-z_]+_ns)":[-0-9.e+]+`), `"$1":0`},
	{regexp.MustCompile(`"durations_ms":\[[-0-9.e+,]*\]`), `"durations_ms":[0]`},
	{regexp.MustCompile(`"id":"[^"]*"`), `"id":"ID"`},
	{regexp.MustCompile(`"(created_at|started_at|finished_at)":"[^"]*"`), `"$1":"T"`},
}

func normalizeWire(body string) string {
	for _, r := range wireTimings {
		body = r.re.ReplaceAllString(body, r.with)
	}
	return body
}

// wireAnswer renders one response as its golden text.
func wireAnswer(t *testing.T, method, url, body string) (string, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %s\n%s", resp.StatusCode, resp.Header.Get("Content-Type"), normalizeWire(string(raw))), string(raw)
}

var jobIDRe = regexp.MustCompile(`"id":"([^"]+)"`)

// settleJob polls a submitted job until it reaches a terminal state
// and returns that answer's golden text.
func settleJob(t *testing.T, base, submitted string) string {
	t.Helper()
	m := jobIDRe.FindStringSubmatch(submitted)
	if m == nil {
		return "no job ID"
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		golden, raw := wireAnswer(t, http.MethodGet, base+"/v1/jobs/"+m[1], "")
		if strings.Contains(raw, `"state":"done"`) || strings.Contains(raw, `"state":"failed"`) {
			return golden
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never settled: %s", m[1], raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wireTier is one deployment the corpus runs against.
type wireTier struct {
	name string
	base func(t *testing.T) string
}

func wireTiers() []wireTier {
	coord := func(cfg Config, workers int) func(t *testing.T) string {
		return func(t *testing.T) string {
			fleet := make([]*chaosWorker, workers)
			for i := range fleet {
				fleet[i] = newChaosWorker(t)
			}
			co := newTestCoordinator(t, cfg, fleet...)
			waitHealthy(t, co, workers)
			ts := httptest.NewServer(co.Handler())
			t.Cleanup(ts.Close)
			return ts.URL
		}
	}
	return []wireTier{
		{"worker", func(t *testing.T) string { return newChaosWorker(t).ts.URL }},
		{"coordinator", coord(Config{}, 2)},
		{"fallback", coord(Config{}, 0)},
		{"no-fallback", coord(Config{DisableFallback: true}, 0)},
	}
}

// TestWireParity pins every tier's wire answers — status,
// Content-Type and body, timings and job identity zeroed — against
// goldens recorded before the worker and the coordinator shared one
// HTTP front end. Regenerate with -update-wire only for an intended
// wire change.
func TestWireParity(t *testing.T) {
	for _, tier := range wireTiers() {
		t.Run(tier.name, func(t *testing.T) {
			base := tier.base(t)
			var out strings.Builder
			for _, c := range wireCases() {
				method := c.method
				if method == "" {
					method = http.MethodPost
				}
				golden, raw := wireAnswer(t, method, base+c.path, c.body)
				fmt.Fprintf(&out, "### %s %s %s\n%s", c.name, method, c.path, golden)
				if c.settle {
					fmt.Fprintf(&out, "### %s settled\n%s", c.name, settleJob(t, base, raw))
				}
			}
			out.WriteString(metricFamilies(t, base))
			checkGolden(t, filepath.Join("testdata", "wire", tier.name+".golden"), out.String())
		})
	}
}

var workerLabelRe = regexp.MustCompile(`worker="[^"]*"`)

// metricFamilies renders the tier's /metrics surface without values:
// every # HELP and # TYPE line, plus each series' name and label set.
func metricFamilies(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
			line = workerLabelRe.ReplaceAllString(line, `worker="W"`)
		}
		seen[line] = true
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return "### metrics\n" + strings.Join(lines, "\n") + "\n"
}

// TestStatsFieldSets pins the JSON field sets of /stats on both tiers.
func TestStatsFieldSets(t *testing.T) {
	var out strings.Builder
	for _, v := range []any{server.Stats{}, Stats{}, WorkerStatus{}, server.SlowRequest{}, server.ShardTrace{}} {
		typ := reflect.TypeOf(v)
		tags := make([]string, typ.NumField())
		for i := range tags {
			tags[i] = typ.Field(i).Tag.Get("json")
		}
		fmt.Fprintf(&out, "%s: %s\n", typ, strings.Join(tags, " "))
	}
	checkGolden(t, filepath.Join("testdata", "wire", "stats-fields.golden"), out.String())
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update-wire)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got: %.400s\nwant: %.400s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
