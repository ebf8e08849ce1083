package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runner runs closed-loop phases of one workload against its tiers. The
// pool cursor carries over between phases, so the pool is cycled in one
// order for the whole run.
type runner struct {
	w      workload
	t      *tiers
	c      *http.Client
	prefix string // request ID prefix
	cursor atomic.Int64
}

// maxErrs bounds the failure messages a phase keeps for its report.
const maxErrs = 5

// phaseResult is what a phase measured.
type phaseResult struct {
	attempted, failed int
	lat               []time.Duration // of the requests that passed
	peak, bound       int
	elapsed, cpu      time.Duration
	alloc             uint64
	layers            *layers
	spans             []tracedRequest
	errs              []string
}

func (p *phaseResult) ok() int { return p.attempted - p.failed }

func (p *phaseResult) throughput() float64 { return float64(p.ok()) / p.elapsed.Seconds() }

// quantile is the nearest-rank q-quantile of the passed requests'
// latencies.
func (p *phaseResult) quantile(q float64) time.Duration {
	if len(p.lat) == 0 {
		return 0
	}
	s := slices.Clone(p.lat)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// result is the JSON result of the phase; a failure in the warm-up also
// makes the run incorrect.
func (p *phaseResult) result(warm *phaseResult) *result {
	return &result{
		Correct:   p.failed == 0 && warm.failed == 0 && p.attempted > 0,
		Attempted: p.attempted,
		Failed:    p.failed,
	}
}

func (p *phaseResult) report(out io.Writer, name string, warm *phaseResult) {
	if warm != nil {
		fmt.Fprintf(out, "warm-up: %d requests, %d failed\n", warm.attempted, warm.failed)
		warm.printErrs(out)
	}
	n := len(p.lat)
	beyond := n - int(0.90*float64(n)+0.5)
	fmt.Fprintf(out, "%s: %d requests in %.3f s, %d failed; %d latency samples, %d beyond p90\n",
		name, p.attempted, p.elapsed.Seconds(), p.failed, n, beyond)
	if beyond < 10 {
		fmt.Fprintf(out, "  warning: fewer than 10 samples beyond p90; lengthen --seconds\n")
	}
	p.printErrs(out)
}

func (p *phaseResult) printErrs(out io.Writer) {
	for _, e := range p.errs {
		fmt.Fprintf(out, "  failure: %s\n", e)
	}
}

func (p *phaseResult) merge(o *phaseResult) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.lat = append(p.lat, o.lat...)
	p.peak += o.peak
	p.bound += o.bound
	p.layers.merge(o.layers)
	p.spans = append(p.spans, o.spans...)
	for _, e := range o.errs {
		if len(p.errs) < maxErrs {
			p.errs = append(p.errs, e)
		}
	}
}

// phase runs the closed loop for dur: each client sends its next pool
// request only after the previous answer arrived and was checked. CPU
// time and allocated bytes are process totals read before and after the
// phase, never during it.
func (d *runner) phase(ctx context.Context, dur time.Duration, traced bool) *phaseResult {
	n := clients()
	parts := make([]*phaseResult, n)
	cpu0, alloc0 := cpuTime(), allocBytes()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k := range parts {
		p := &phaseResult{layers: newLayers()}
		parts[k] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.client(ctx, p, deadline, traced)
		}()
	}
	wg.Wait()
	total := &phaseResult{
		elapsed: time.Since(start),
		cpu:     cpuTime() - cpu0,
		alloc:   allocBytes() - alloc0,
		layers:  newLayers(),
	}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

func (d *runner) client(ctx context.Context, p *phaseResult, deadline time.Time, traced bool) {
	pool := int64(d.w.poolSize())
	for time.Now().Before(deadline) {
		seq := d.cursor.Add(1) - 1
		rec := &record{rid: fmt.Sprintf("%s-%d", d.prefix, seq), traced: traced}
		if traced {
			rec.layers = p.layers
		}
		p.attempted++
		err := d.w.do(ctx, d.c, d.t, int(seq%pool), rec)
		if err == nil && rec.root != nil {
			if bad := rec.root.check(); len(bad) > 0 {
				err = fmt.Errorf("span tree: %s", bad[0])
			}
		}
		// A failed answer's legal fills still count in peak_over_bound,
		// so a fill that misses the bound shows there too.
		p.peak += rec.peak
		p.bound += rec.bound
		if err != nil {
			p.failed++
			if len(p.errs) < maxErrs {
				p.errs = append(p.errs, fmt.Sprintf("%s: %v", rec.rid, err))
			}
			continue
		}
		p.lat = append(p.lat, rec.latency)
		if rec.root != nil {
			p.spans = append(p.spans, tracedRequest{RID: rec.rid, Root: rec.root})
		}
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the Go heap's cumulative allocated bytes, read without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
