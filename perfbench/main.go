// Command perfbench is the repository's end-to-end serving benchmark. It
// builds the worker, coordinator and job tiers in process through their
// public constructors, serves them on loopback listeners, and drives one
// named workload as a closed loop of at most two clients for a fixed
// time. Every answer it times is checked; wrong answers count as
// failures. With --trace 1 it instead prints the per-layer metrics of a
// traced run, each layer's self time, and the tracing overhead.
//
//	perfbench --workload fill-wide --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// workDir holds everything a run writes: temporary data directories and
// the traced run's spans. It is relative to the directory the benchmark
// runs from, the root of a checkout.
const workDir = ".bench_build/perfbench"

const (
	setupRuns = 25
	warmUp    = 1500 * time.Millisecond
)

// clients is the closed loop's width: the service's callers each wait
// for their reply, and two keep a two-CPU machine busy.
func clients() int { return min(2, runtime.NumCPU()) }

type metricDef struct{ name, unit string }

// endToEnd are the metrics a caller of the service sees, printed by the
// untraced run.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_kb_per_req", "KiB"},
	{"peak_over_bound", "ratio"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"server.http_ms", "ms"},
	{"server.prep_ms", "ms"},
	{"server.response_kb", "KiB"},
	{"server.cache_hit_ratio", "ratio"},
	{"cube.parse_ms", "ms"},
	{"cube.render_ms", "ms"},
	{"engine.queue_wait_ms", "ms"},
	{"engine.job_ms", "ms"},
	{"order.order_ms", "ms"},
	{"core.fill_ms", "ms"},
	{"core.pack_ms", "ms"},
	{"core.scan_ms", "ms"},
	{"core.reconstruct_ms", "ms"},
	{"core.unpack_ms", "ms"},
	{"core.arena_reuse_ratio", "ratio"},
	{"bcp.bound_ms", "ms"},
	{"bcp.assign_ms", "ms"},
	{"bcp.windows_scanned", "count"},
	{"bcp.suffix_break_ratio", "ratio"},
	{"cluster.dispatch_ms", "ms"},
	{"cluster.worker_ms", "ms"},
	{"cluster.overhead_ms", "ms"},
	{"cluster.attempts_per_shard", "count"},
	{"cluster.hedge_ratio", "ratio"},
	{"cluster.fallback_ratio", "ratio"},
	{"cluster.affinity_hit_ratio", "ratio"},
	{"pipeline.netlist_ms", "ms"},
	{"pipeline.atpg_ms", "ms"},
	{"pipeline.curve_ms", "ms"},
	{"pipeline.fill_ms", "ms"},
	{"pipeline.power_ms", "ms"},
	{"atpg.patterns", "count"},
	{"atpg.coverage_pct", "%"},
	{"jobs.submit_ms", "ms"},
	{"jobs.queue_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.wal_kb_per_job", "KiB"},
	{"trace.overhead_pct", "%"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	names := slices.Sorted(maps.Keys(workloads))
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured window, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	o.trace = *traced == 1
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func bench(o options, out io.Writer) (*result, error) {
	stamp := newEnvStamp(o)
	line, err := json.Marshal(stamp)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "env %s\n", line)

	w := workloads[o.workload]()
	t0 := time.Now()
	if err := w.generate(o.seed); err != nil {
		return nil, fmt.Errorf("generating %s inputs: %w", o.workload, err)
	}
	fmt.Fprintf(out, "inputs: %d pool requests generated and checked in %.2f s\n", w.poolSize(), time.Since(t0).Seconds())

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	c, transport := newClient()
	defer transport.CloseIdleConnections()
	setups := make([]float64, 0, setupRuns)
	var t *tiers
	for i := range setupRuns {
		// Collect the generator's garbage first, so no set-up pays for
		// marking the heap the inputs left behind.
		runtime.GC()
		start := time.Now()
		t, err = w.start(ctx, c, dir)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRuns-1 {
			transport.CloseIdleConnections()
			t.close()
		}
	}
	defer t.close()

	d := &runner{w: w, t: t, c: c, prefix: fmt.Sprintf("pb-%s-%d", o.workload, o.seed)}
	warm := d.phase(ctx, warmUp, false)
	window := time.Duration(o.seconds) * time.Second
	if o.trace {
		return d.traced(ctx, out, window, warm)
	}
	p := d.phase(ctx, window, false)
	p.report(out, "measured", warm)
	res := p.result(warm)
	res.Metrics = map[string]metricValue{
		"throughput_rps":   {p.throughput(), "1/s"},
		"latency_p50_ms":   {durMS(p.quantile(0.50)), "ms"},
		"latency_p90_ms":   {durMS(p.quantile(0.90)), "ms"},
		"cpu_ms_per_req":   {durMS(p.cpu) / float64(max(p.ok(), 1)), "ms"},
		"alloc_kb_per_req": {float64(p.alloc) / 1024 / float64(max(p.ok(), 1)), "KiB"},
		"peak_over_bound":  {safeDiv(float64(p.peak), float64(p.bound)), "ratio"},
		"setup_s":          {median(setups), "s"},
	}
	fmt.Fprintf(out, "setup: median %.6f s over %d set-ups (min %.6f, max %.6f)\n",
		median(setups), len(setups), slices.Min(setups), slices.Max(setups))
	printMetrics(out, endToEnd, res.Metrics)
	fmt.Fprintf(out, "error_rate %.6f (failed %d of %d attempted)\n",
		safeDiv(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	return res, nil
}

// traced splits the window into an untraced half and a traced half,
// derives the per-layer metrics from the traced answers, the
// /metrics deltas and the direct layer replays, and prints the self-time
// budget.
func (d *runner) traced(ctx context.Context, out io.Writer, window time.Duration, warm *phaseResult) (*result, error) {
	window /= 2
	plain := d.phase(ctx, window, false)
	plain.report(out, "untraced", nil)
	before, err := fetchScrapes(ctx, d.c, d.t.scraped)
	if err != nil {
		return nil, err
	}
	p := d.phase(ctx, window, true)
	after, err := fetchScrapes(ctx, d.c, d.t.scraped)
	if err != nil {
		return nil, err
	}
	p.report(out, "traced", nil)
	l := p.layers
	delta := scrapeDelta{before, after}
	l.set("server.cache_hit_ratio", delta.ratio("dpfill_cache_hits_total", "dpfill_cache_misses_total"))
	l.set("core.arena_reuse_ratio", delta.ratio("dpfill_go_arena_hits_total", "dpfill_go_arena_misses_total"))
	l.set("cluster.affinity_hit_ratio", delta.ratio("dpfill_coord_affinity_hits_total", "dpfill_coord_affinity_misses_total"))
	shards := delta.of("dpfill_coord_shards_total")
	l.set("cluster.hedge_ratio", safeDiv(delta.of("dpfill_coord_hedges_total"), shards))
	l.set("cluster.fallback_ratio", safeDiv(delta.of("dpfill_coord_fallbacks_total"), shards))
	if delta.of("dpfill_wal_records_total") > 0 {
		l.set("jobs.wal_kb_per_job", delta.of("dpfill_wal_journal_bytes")/1024/float64(max(p.ok(), 1)))
	}
	l.set("trace.overhead_pct", 100*(safeDiv(durMS(p.quantile(0.5)), durMS(plain.quantile(0.5)))-1))
	// A replay that fails, a DP peak off its bound included, is one more
	// failed answer.
	replayed := newLayers()
	replayErr := d.w.replay(replayed)
	if replayErr != nil {
		fmt.Fprintf(out, "  failure: layer replay: %v\n", replayErr)
	}
	l.merge(replayed)

	b := newBudget(p.spans)
	b.print(out, "self time per request")
	fmt.Fprintf(out, "in-process replay estimates inside the server: cube.parse %.3f ms, order %.3f ms, cube.render %.3f ms, engine queue wait %.3f ms\n",
		l.value("cube.parse_ms"), l.value("order.order_ms"), l.value("cube.render_ms"), l.value("engine.queue_wait_ms"))
	fmt.Fprintf(out, "tracing overhead: p50 %+.2f%% against the untraced window\n", l.value("trace.overhead_pct"))
	if err := d.writeSpans(p.spans); err != nil {
		return nil, err
	}

	res := p.result(warm)
	if replayErr != nil {
		res.Attempted++
		res.Failed++
	}
	res.Correct = res.Correct && plain.failed == 0 && replayErr == nil
	res.Metrics = make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{l.value(m.name), m.unit}
	}
	printMetrics(out, perLayer, res.Metrics)
	return res, nil
}

func (d *runner) writeSpans(spans []tracedRequest) error {
	path := filepath.Join(workDir, d.prefix+"-spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printMetrics(out io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(out, "  %-28s %14.6f %s\n", d.name, m[d.name].Value, d.unit)
	}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
