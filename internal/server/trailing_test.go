package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/server"
)

// TestTrailingBytesRejected checks that a body with more than JSON
// whitespace after its value answers 400 with encoding/json's syntax
// error, on a worker and on a coordinator, instead of serving the
// first value and dropping the rest; trailing whitespace stays fine.
func TestTrailingBytesRejected(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	co, err := cluster.New(cluster.Config{Local: server.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go co.Run(ctx)
	cases := []struct {
		path, body string
		status     int
		err        string
	}{
		{"/v1/fill", `{"cubes":["01X","1X0"]}garbage`, 400, "malformed JSON: invalid character 'g' after top-level value"},
		{"/v1/fill", `{"cubes":["01X","1X0"]}{"cubes":["bad"]}`, 400, "malformed JSON: invalid character '{' after top-level value"},
		{"/v1/batch", `{"jobs":[{"cubes":["01X"]}]} x`, 400, "malformed JSON: invalid character 'x' after top-level value"},
		{"/v1/jobs", `{"jobs":[{"cubes":["01X"]}]}]`, 400, "malformed JSON: invalid character ']' after top-level value"},
		{"/v1/grid", `{"cubes":["01X"]}0`, 400, "malformed JSON: invalid character '0' after top-level value"},
		// An escape sends the body down the encoding/json path, which
		// applies the same rule.
		{"/v1/fill", `{"cubes":["01X"],"name":"\u0041"} 1`, 400, "malformed JSON: invalid character '1' after top-level value"},
		// An error inside the value comes first.
		{"/v1/fill", `{"cubes":["01X"],"bogus":1}garbage`, 400, `malformed JSON: json: unknown field "bogus"`},
		{"/v1/fill", "{\"cubes\":[\"01X\",\"1X0\"]} \r\n\t", 200, ""},
		{"/v1/fill", "{\"cubes\":[\"01X\"],\"name\":\"\\u0041\"}\n", 200, ""},
	}
	for tier, h := range map[string]http.Handler{"worker": srv.Handler(), "coordinator": co.Handler()} {
		for _, tc := range cases {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			var e struct {
				Error string `json:"error"`
			}
			_ = json.Unmarshal(rec.Body.Bytes(), &e)
			if rec.Code != tc.status || e.Error != tc.err {
				t.Errorf("%s %s %q: %d %q, want %d %q", tier, tc.path, tc.body, rec.Code, e.Error, tc.status, tc.err)
			}
		}
	}
}
