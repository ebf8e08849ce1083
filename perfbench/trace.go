package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
)

// span is one timed step of a request in the traced run. The root span is
// the benchmark's own clock around the call; its descendants are derived
// from what the API returns (duration_ms, explain, shards[], stages and
// the job lifecycle timestamps), so only durations are known, not offsets.
type span struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
	// Lanes > 1 marks children that ran concurrently on that many lanes
	// (coordinator shards, engine workers). Their covered part of the
	// parent is then the longer of the longest child and the children's
	// total spread over the lanes, an estimate since offsets are unknown.
	Lanes    int     `json:"lanes,omitempty"`
	Children []*span `json:"children,omitempty"`
}

func newSpan(name string, d time.Duration) *span { return &span{Name: name, Dur: d} }

// add attaches a child and returns it.
func (s *span) add(c *span) *span {
	s.Children = append(s.Children, c)
	return c
}

// other is the part of the span no child covers: its self time.
func (s *span) other() time.Duration { return s.Dur - s.covered() }

// covered is the part of the span its children account for.
func (s *span) covered() time.Duration {
	var sum, longest time.Duration
	for _, c := range s.Children {
		sum += c.Dur
		longest = max(longest, c.Dur)
	}
	if s.Lanes > 1 {
		return max(longest, sum/time.Duration(s.Lanes))
	}
	return sum
}

// check reports every span whose children outlast it, which means two
// layers' clocks disagree about the same request.
func (s *span) check() []string {
	var bad []string
	if o := s.other(); o < 0 {
		bad = append(bad, fmt.Sprintf("%s: children exceed the span by %v", s.Name, -o))
	}
	for _, c := range s.Children {
		bad = append(bad, c.check()...)
	}
	return bad
}

// selfTimes adds every span's self time, weighted by its share of the
// request's wall time, into acc keyed by span name. Children on lanes
// share the part of the parent they cover, so each is weighted by that
// part over their summed durations; the weighted self times of a
// consistent tree then add up to the root's duration.
func (s *span) selfTimes(acc map[string]float64, weight float64) {
	acc[s.Name] += weight * float64(s.other())
	var sum time.Duration
	for _, c := range s.Children {
		sum += c.Dur
	}
	if s.Lanes > 1 && sum > 0 {
		weight *= float64(s.covered()) / float64(sum)
	}
	for _, c := range s.Children {
		c.selfTimes(acc, weight)
	}
}

func msDur(ms float64) time.Duration  { return time.Duration(ms * 1e6) }
func durMS(d time.Duration) float64   { return float64(d) / 1e6 }
func millisSince(t time.Time) float64 { return durMS(time.Since(t)) }
func kib(n int) float64               { return float64(n) / 1024 }

// stageLayer maps a named fill-core explain stage to its span name; the
// remainder, other_ns, is the core.fill span's own self time.
var stageLayer = map[string]string{
	"pack":        "core.pack",
	"scan":        "core.scan",
	"bound":       "bcp.bound",
	"assign":      "bcp.assign",
	"reconstruct": "core.reconstruct",
	"unpack":      "core.unpack",
}

// fillSpan turns a fill-core explain trace into a span whose children are
// its named stages. The explain record promises that its stages plus
// other_ns sum exactly to total_ns; the returned error reports a breach.
func fillSpan(ex *core.Trace) (*span, error) {
	s := newSpan("core.fill", time.Duration(ex.TotalNS))
	var sum int64
	for _, st := range ex.StageNS() {
		sum += st.NS
		if st.Stage != "other" {
			s.add(newSpan(stageLayer[st.Stage], time.Duration(st.NS)))
		}
	}
	if sum != ex.TotalNS {
		return s, fmt.Errorf("explain stages sum to %d ns, total_ns is %d", sum, ex.TotalNS)
	}
	return s, nil
}

// layers accumulates per-layer metrics as sums of numerators and
// denominators; a metric's value is their quotient. A mean adds (v, 1),
// a ratio adds (hits, attempts).
type layers struct {
	num, den map[string]float64
}

func newLayers() *layers {
	return &layers{num: make(map[string]float64), den: make(map[string]float64)}
}

func (l *layers) add(name string, num, den float64) {
	l.num[name] += num
	l.den[name] += den
}

// mean records one sample of a per-item mean.
func (l *layers) mean(name string, v float64) { l.add(name, v, 1) }

// set records a metric computed elsewhere, replacing any samples.
func (l *layers) set(name string, v float64) {
	l.num[name], l.den[name] = v, 1
}

func (l *layers) merge(o *layers) {
	for k, v := range o.num {
		l.num[k] += v
	}
	for k, v := range o.den {
		l.den[k] += v
	}
}

func (l *layers) value(name string) float64 { return safeDiv(l.num[name], l.den[name]) }

// addCore records a fill's explain trace as core and bcp layer samples.
func addCore(l *layers, ex *core.Trace) {
	l.mean("core.fill_ms", durMS(time.Duration(ex.TotalNS)))
	l.mean("core.pack_ms", durMS(time.Duration(ex.PackNS)))
	l.mean("core.scan_ms", durMS(time.Duration(ex.ScanNS)))
	l.mean("core.reconstruct_ms", durMS(time.Duration(ex.ReconstructNS)))
	l.mean("core.unpack_ms", durMS(time.Duration(ex.UnpackNS)))
	l.mean("bcp.bound_ms", durMS(time.Duration(ex.BoundNS)))
	l.mean("bcp.assign_ms", durMS(time.Duration(ex.AssignNS)))
	l.mean("bcp.windows_scanned", float64(ex.BCP.WindowsScanned))
	l.add("bcp.suffix_break_ratio", float64(ex.BCP.SuffixBreaks), float64(ex.BCP.StartsScanned))
}

// tracedRequest is one request's span tree, kept in memory during the
// traced run and written out when the run ends.
type tracedRequest struct {
	RID  string `json:"rid"`
	Root *span  `json:"root"`
}

// encodeSpans writes the span trees as JSON lines.
func encodeSpans(w io.Writer, reqs []tracedRequest) error {
	enc := json.NewEncoder(w)
	for _, r := range reqs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// budget is the weighted self time of every span name over a set of
// requests, in nanoseconds.
type budget struct {
	requests int
	self     map[string]float64
	total    float64
}

func newBudget(reqs []tracedRequest) budget {
	b := budget{self: make(map[string]float64)}
	for _, r := range reqs {
		r.Root.selfTimes(b.self, 1)
		b.total += float64(r.Root.Dur)
		b.requests++
	}
	return b
}

// print writes the budget as a table of mean milliseconds per request
// and share of the request's wall time, largest first.
func (b budget) print(w io.Writer, title string) {
	if b.requests == 0 {
		return
	}
	per := func(ns float64) float64 { return ns / 1e6 / float64(b.requests) }
	fmt.Fprintf(w, "%s (%d requests, mean %.3f ms each)\n", title, b.requests, per(b.total))
	names := slices.Collect(maps.Keys(b.self))
	slices.SortFunc(names, func(a, c string) int {
		if d := cmp.Compare(b.self[c], b.self[a]); d != 0 {
			return d
		}
		return strings.Compare(a, c)
	})
	for _, n := range names {
		fmt.Fprintf(w, "  %-22s %9.3f ms  %5.1f%%\n", n, per(b.self[n]), 100*b.self[n]/b.total)
	}
}
