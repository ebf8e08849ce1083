package main

import (
	"os"
	"strings"
	"testing"
)

func loadScrape(t *testing.T, name string) scrape {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseScrape(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The captured scrapes come from a fill-wide worker after three fills and
// a batch-coord coordinator after three 64-job batches.
func TestParseWorkerScrape(t *testing.T) {
	s := loadScrape(t, "worker.prom")
	for key, want := range map[string]float64{
		"dpfill_jobs_total":                                                3,
		"dpfill_cache_misses_total":                                        3,
		"dpfill_cache_hits_total":                                          0,
		"dpfill_engine_workers":                                            2,
		`dpfill_fill_latency_seconds_bucket{le="+Inf"}`:                    3,
		`dpfill_fill_stage_seconds_count{stage="pack"}`:                    3,
		`dpfill_pipeline_stage_seconds_bucket{stage="netlist",le="0.001"}`: 0,
		"dpfill_fill_latency_seconds_sum":                                  0.027988031,
	} {
		if got, ok := s[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	// Seven labelled stage series, three fills each.
	if got := s.sum("dpfill_fill_stage_seconds_count"); got != 21 {
		t.Errorf("sum of stage counts %v, want 21", got)
	}
}

func TestParseCoordinatorScrape(t *testing.T) {
	s := loadScrape(t, "coordinator.prom")
	for key, want := range map[string]float64{
		"dpfill_coord_shards_total":          12,
		"dpfill_coord_affinity_hits_total":   10,
		"dpfill_coord_affinity_misses_total": 2,
		"dpfill_coord_workers_healthy":       2,
	} {
		if got := s[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	if got := s.sum("dpfill_coord_worker_outstanding"); got != 0 {
		t.Errorf("outstanding over both workers %v, want 0", got)
	}
	n := 0
	for key := range s {
		if strings.HasPrefix(key, "dpfill_coord_worker_outstanding{") {
			n++
		}
	}
	if n != 2 {
		t.Errorf("%d per-worker series, want 2", n)
	}
}

func TestScrapeDeltaRatios(t *testing.T) {
	before := scrape{"hits": 10, "misses": 30, `x{a="1"}`: 1, `x{a="2"}`: 2}
	after := scrape{"hits": 40, "misses": 40, `x{a="1"}`: 5, `x{a="2"}`: 2}
	d := scrapeDelta{before, after}
	if got := d.ratio("hits", "misses"); got != 0.75 {
		t.Errorf("hit ratio %v, want 0.75", got)
	}
	if got := d.of("x"); got != 4 {
		t.Errorf("labelled delta %v, want 4", got)
	}
	if got := d.ratio("absent", "missing"); got != 0 {
		t.Errorf("ratio of absent families %v, want 0", got)
	}
}

func TestParseScrapeLabelsAndErrors(t *testing.T) {
	s, err := parseScrape(strings.NewReader(`# HELP m help
# TYPE m gauge
m{path="/a b}",q="say \"hi\""} 1.5 1700000000000
m{path="/c"} +Inf
bare 2
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s[`m{path="/a b}",q="say \"hi\""}`]; got != 1.5 {
		t.Errorf("quoted labels: %v", got)
	}
	if got := s["bare"]; got != 2 {
		t.Errorf("bare series: %v", got)
	}
	for _, bad := range []string{
		"m{a=\"1\" 2\n",
		"m notanumber\n",
		"m 1 2 3\n",
		"m 1\nm 2\n",
		"{a=\"1\"} 2\n",
	} {
		if _, err := parseScrape(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}
