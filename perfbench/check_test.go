package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/server"
)

// tinyCase is a 3-vector set whose DP peak is 1: vectors 0X1, X10, 1XX
// in tool order.
func tinyCase(t *testing.T) *fillCase {
	t.Helper()
	fc, err := newFillCase([]string{"0X1", "X10", "1XX"}, "tool")
	if err != nil {
		t.Fatal(err)
	}
	return fc
}

// answer builds a self-consistent fill answer for out.
func answer(fc *fillCase, out []string) *server.FillResponse {
	profile, _ := recount(fc, out)
	r := &server.FillResponse{Rows: len(out), Width: len(out[0]), Perm: slices.Clone(fc.perm), Cubes: out, Profile: profile}
	for _, v := range profile {
		r.Peak = max(r.Peak, v)
		r.Total += v
	}
	return r
}

func TestCheckFillAcceptsOptimalFill(t *testing.T) {
	fc := tinyCase(t)
	if fc.bound != 1 {
		t.Fatalf("bound %d, want 1", fc.bound)
	}
	if err := checkFill(fc, answer(fc, []string{"011", "010", "110"}), false); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFillRejectsCorruptions(t *testing.T) {
	fc := tinyCase(t)
	good := func() *server.FillResponse { return answer(fc, []string{"011", "010", "110"}) }
	cases := map[string]func() *server.FillResponse{
		"care bit overwritten": func() *server.FillResponse { return answer(fc, []string{"111", "110", "110"}) },
		"pin left unfilled":    func() *server.FillResponse { r := good(); r.Cubes[1] = "X10"; return r },
		"peak not a recount":   func() *server.FillResponse { r := good(); r.Peak++; return r },
		"total not a recount":  func() *server.FillResponse { r := good(); r.Total++; return r },
		"profile not a recount": func() *server.FillResponse {
			r := good()
			r.Profile[0], r.Profile[1] = r.Profile[1]+1, r.Profile[0]
			return r
		},
		"legal but above the bound": func() *server.FillResponse { return answer(fc, []string{"001", "110", "100"}) },
		"wrong ordering":            func() *server.FillResponse { r := good(); r.Perm = []int{2, 1, 0}; return r },
		"wrong shape":               func() *server.FillResponse { r := good(); r.Rows = 4; return r },
		"missing cube":              func() *server.FillResponse { r := good(); r.Cubes = r.Cubes[:2]; return r },
	}
	for name, mk := range cases {
		err := checkFill(fc, mk(), false)
		if err == nil {
			t.Errorf("%s: passed", name)
		}
		if legal(err) != (name == "legal but above the bound") {
			t.Errorf("%s: counted in peak_over_bound: %v", name, legal(err))
		}
	}
	omitted := good()
	omitted.Cubes = nil
	if err := checkFill(fc, omitted, true); err != nil {
		t.Errorf("omitted cubes: %v", err)
	}
	omitted.Peak = 2
	omitted.Profile = []int{2, 0}
	if err := checkFill(fc, omitted, true); err == nil {
		t.Errorf("omitted cubes with a peak above the bound: passed")
	}
}

func TestCheckSameRejectsDifferentAnswer(t *testing.T) {
	want := &server.FillResponse{Perm: []int{0, 1, 2}, Peak: 2, Total: 3, Profile: []int{2, 1}}
	cp := func(f func(r *server.FillResponse)) *server.FillResponse {
		r := *want
		r.Perm, r.Profile = slices.Clone(want.Perm), slices.Clone(want.Profile)
		f(&r)
		return &r
	}
	if err := checkSame(cp(func(*server.FillResponse) {}), want); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*server.FillResponse{
		"ordering": cp(func(r *server.FillResponse) { r.Perm[0], r.Perm[1] = 1, 0 }),
		"peak":     cp(func(r *server.FillResponse) { r.Peak = 3 }),
		"total":    cp(func(r *server.FillResponse) { r.Total = 4 }),
		"profile":  cp(func(r *server.FillResponse) { r.Profile = []int{1, 2} }),
	} {
		if err := checkSame(got, want); err == nil {
			t.Errorf("%s differs: passed", name)
		}
	}
}

func TestCheckReportIgnoresOnlyStageTimings(t *testing.T) {
	rep := &pipeline.Report{
		Name:   "b",
		ATPG:   &pipeline.ATPGReport{Patterns: 5, Coverage: 0.9},
		Fill:   &pipeline.FillReport{Peak: 3},
		Stages: []pipeline.StageTiming{{Stage: "atpg", DurationMillis: 1.5}},
	}
	want, err := canonicalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages[0].DurationMillis != 1.5 {
		t.Fatal("canonicalReport modified the report")
	}
	slower := *rep
	slower.Stages = []pipeline.StageTiming{{Stage: "atpg", DurationMillis: 9}}
	if err := checkReport(&slower, want, 3); err != nil {
		t.Fatalf("timings only: %v", err)
	}
	coverage := *rep
	coverage.ATPG = &pipeline.ATPGReport{Patterns: 5, Coverage: 0.8}
	if err := checkReport(&coverage, want, 3); err == nil {
		t.Error("changed coverage: passed")
	}
	if err := checkReport(rep, want, 2); err == nil {
		t.Error("peak above the bound: passed")
	}
}

// corruptingProxy serves the workload's tiers through a handler that
// rewrites every JSON answer of path with corrupt.
func corruptingProxy(t *testing.T, backend, path string, corrupt func(map[string]any)) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, backend+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if r.URL.Path == path {
			var v map[string]any
			if json.Unmarshal(body, &v) == nil {
				corrupt(v)
				body, _ = json.Marshal(v)
			}
		}
		for k, vs := range resp.Header {
			if k != "Content-Length" {
				w.Header()[k] = vs
			}
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// runCorrupted drives the workload for a short phase with its answers
// rewritten and asserts that every answer was counted as failed.
func runCorrupted(t *testing.T, w workload, path string, corrupt func(map[string]any)) {
	t.Helper()
	ctx := context.Background()
	c, tr := newClient()
	defer tr.CloseIdleConnections()
	tiers, err := w.start(ctx, c, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tiers.close()
	if corrupt != nil {
		tiers.base = corruptingProxy(t, tiers.base, path, corrupt)
	}
	d := &runner{w: w, t: tiers, c: c, prefix: "test"}
	p := d.phase(ctx, 300*time.Millisecond, false)
	if p.attempted == 0 {
		t.Fatal("no request attempted")
	}
	res := p.result(&phaseResult{})
	if corrupt == nil {
		if p.failed != 0 || !res.Correct {
			t.Fatalf("clean answers: %d of %d failed: %v", p.failed, p.attempted, p.errs)
		}
		return
	}
	if p.failed != p.attempted || res.Correct {
		t.Fatalf("corrupted answers: %d of %d failed, correct=%v", p.failed, p.attempted, res.Correct)
	}
}

func TestFillWideCountsCorruptedAnswers(t *testing.T) {
	w := &fillWide{}
	if err := w.generate(7); err != nil {
		t.Fatal(err)
	}
	flipFirst := func(v map[string]any) {
		cubes := v["cubes"].([]any)
		s := []byte(cubes[0].(string))
		s[0] ^= 1 // '0' <-> '1'
		cubes[0] = string(s)
	}
	for name, corrupt := range map[string]func(map[string]any){
		"none":           nil,
		"peak":           func(v map[string]any) { v["peak"] = v["peak"].(float64) + 1 },
		"profile":        func(v map[string]any) { p := v["profile"].([]any); p[0] = p[0].(float64) + 1 },
		"perm":           func(v map[string]any) { p := v["perm"].([]any); p[0], p[1] = p[1], p[0] },
		"cubes":          flipFirst,
		"unfilled":       func(v map[string]any) { c := v["cubes"].([]any); c[0] = "X" + c[0].(string)[1:] },
		"dropped answer": func(v map[string]any) { delete(v, "cubes") },
	} {
		t.Run(name, func(t *testing.T) { runCorrupted(t, w, "/v1/fill", corrupt) })
	}
}

func TestPipelineCountsCorruptedReports(t *testing.T) {
	w := &pipelineATPG{}
	if err := w.generate(7); err != nil {
		t.Fatal(err)
	}
	runCorrupted(t, w, "/v1/pipeline", nil)
	runCorrupted(t, w, "/v1/pipeline", func(v map[string]any) {
		v["atpg"].(map[string]any)["patterns"] = 0.0
	})
	runCorrupted(t, w, "/v1/pipeline", func(v map[string]any) {
		f := v["fill"].(map[string]any)
		f["peak"] = f["peak"].(float64) + 1
	})
}

func TestAsyncCountsAnswersDifferentFromSync(t *testing.T) {
	if testing.Short() {
		t.Skip("generates long sequences")
	}
	w := &asyncLong{}
	if err := w.generate(7); err != nil {
		t.Fatal(err)
	}
	runCorrupted(t, w, "", nil)
	// A sync answer that disagrees with every async one stands for an
	// async result that disagrees with the sync answer.
	for _, answers := range w.sync {
		for _, a := range answers {
			a.Total++
		}
	}
	ctx := context.Background()
	c, tr := newClient()
	defer tr.CloseIdleConnections()
	tiers, err := w.start(ctx, c, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tiers.close()
	d := &runner{w: w, t: tiers, c: c, prefix: "test"}
	p := d.phase(ctx, 300*time.Millisecond, false)
	if p.attempted == 0 || p.failed != p.attempted {
		t.Fatalf("%d of %d failed", p.failed, p.attempted)
	}
	if !strings.Contains(p.errs[0], "sync") {
		t.Fatalf("failure does not name the sync answer: %s", p.errs[0])
	}
}
