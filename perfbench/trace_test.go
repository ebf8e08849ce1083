package main

import (
	"testing"
	"time"

	"repro/internal/core"
)

func TestSpanOtherAndCheck(t *testing.T) {
	root := newSpan("request", 10*time.Millisecond)
	srv := root.add(newSpan("server", 7*time.Millisecond))
	srv.add(newSpan("core.fill", 4*time.Millisecond))
	if got := root.other(); got != 3*time.Millisecond {
		t.Errorf("root other %v, want 3ms", got)
	}
	if bad := root.check(); len(bad) != 0 {
		t.Errorf("consistent tree flagged: %v", bad)
	}
	srv.add(newSpan("core.fill", 4*time.Millisecond))
	if bad := root.check(); len(bad) != 1 {
		t.Errorf("children outlasting their parent flagged %d times, want 1", len(bad))
	}
}

func TestSelfTimesAddUpWithLanes(t *testing.T) {
	// Two shards on two lanes of a 10ms request: 8ms and 6ms long, each
	// with a 4ms worker call inside.
	root := newSpan("request", 10*time.Millisecond)
	root.Lanes = 2
	for _, d := range []time.Duration{8, 6} {
		s := root.add(newSpan("cluster.dispatch", d*time.Millisecond))
		s.add(newSpan("cluster.worker", 4*time.Millisecond))
	}
	b := newBudget([]tracedRequest{{RID: "r", Root: root}})
	sum := 0.0
	for _, v := range b.self {
		sum += v
	}
	if sum != float64(10*time.Millisecond) {
		t.Errorf("self times sum to %v ns, want the request's 10ms", sum)
	}
	if got := b.self["request"]; got != float64(2*time.Millisecond) {
		t.Errorf("request self %v ns, want 2ms", got)
	}
}

func TestFillSpanChecksTheExplainSeal(t *testing.T) {
	ex := &core.Trace{PackNS: 1, ScanNS: 2, BoundNS: 3, AssignNS: 4, ReconstructNS: 5, UnpackNS: 6, OtherNS: 7, TotalNS: 28}
	s, err := fillSpan(ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Children) != 6 || s.other() != 7 {
		t.Errorf("fill span: %d stages, other %v; want 6 stages, other 7ns", len(s.Children), s.other())
	}
	ex.TotalNS = 30
	if _, err := fillSpan(ex); err == nil {
		t.Error("stages that do not sum to total_ns passed")
	}
}

func TestLayersMeanAndRatio(t *testing.T) {
	l := newLayers()
	l.mean("a_ms", 1)
	l.mean("a_ms", 3)
	l.add("r", 1, 4)
	l.add("r", 2, 2)
	o := newLayers()
	o.mean("a_ms", 5)
	l.merge(o)
	if got := l.value("a_ms"); got != 3 {
		t.Errorf("mean %v, want 3", got)
	}
	if got := l.value("r"); got != 0.5 {
		t.Errorf("ratio %v, want 0.5", got)
	}
	if got := l.value("absent"); got != 0 {
		t.Errorf("absent metric %v, want 0", got)
	}
}
