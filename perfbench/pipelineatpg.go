package main

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// pipeline-atpg: one worker answering POST /v1/pipeline for circuits
// drawn from b03, b06, b09@0.5 and b10@0.5 with seeded ATPG. ATPG and
// fault simulation dominate and the fill is a sliver, so a fill or
// serving change should leave this workload unchanged.
//
// The circuits cost about 3 (b06), 15 (b09@0.5), 24 (b03) and 27
// (b10@0.5) ms each on one core. pipelineMix weights them 2:4:5:5, so
// that the latency median and p90 fall inside a circuit's own mode rather
// than on the step between two modes, where the mix of one run would
// swing them. The pool repeats the mix twice with fresh ATPG seeds.
var pipelineMix = []string{
	"b03", "b10@0.5", "b09@0.5", "b03", "b10@0.5", "b06", "b09@0.5", "b03",
	"b10@0.5", "b09@0.5", "b03", "b10@0.5", "b06", "b09@0.5", "b03", "b10@0.5",
}

const pipelinePool = 32

// pipelineStages are the report's stage names; ATPG shard stages
// ("atpg/K") fold into atpg.
var pipelineStages = []string{"netlist", "atpg", "curve", "fill", "power"}

type pipelineATPG struct {
	bodies [][]byte
	want   [][]byte    // canonical in-process report per request
	bounds []int       // BCP bound of each run's ATPG cubes in applied order
	fills  []*fillCase // each run's fill input, for the layer replays
	atpg   []*pipeline.ATPGReport
}

func (w *pipelineATPG) poolSize() int { return len(w.bodies) }

func (w *pipelineATPG) generate(seed int64) error {
	r := newRand(seed, 3)
	ctx := context.Background()
	for i := range pipelinePool {
		req := pipeline.Request{Spec: pipelineMix[i%len(pipelineMix)], Seed: 1 + r.Int64N(1<<30)}
		rep, err := pipeline.Run(ctx, req, pipeline.RunOptions{})
		if err != nil {
			return fmt.Errorf("in-process pipeline %s: %w", req.Spec, err)
		}
		want, err := canonicalReport(rep)
		if err != nil {
			return err
		}
		// The same request with its cubes included yields the fill
		// stage's input, whose bound a DP fill must reach.
		withCubes := req
		withCubes.IncludeCubes = true
		full, err := pipeline.Run(ctx, withCubes, pipeline.RunOptions{})
		if err != nil {
			return fmt.Errorf("in-process pipeline %s: %w", req.Spec, err)
		}
		fc, err := newFillCase(full.ATPG.Cubes, "tool")
		if err != nil {
			return err
		}
		if !slices.Equal(full.Fill.Perm, fc.perm) {
			return fmt.Errorf("in-process pipeline %s: fill stage did not apply tool order", req.Spec)
		}
		w.bodies = append(w.bodies, mustJSON(req))
		w.want = append(w.want, want)
		w.bounds = append(w.bounds, fc.bound)
		w.fills = append(w.fills, fc)
		w.atpg = append(w.atpg, rep.ATPG)
	}
	return nil
}

func (w *pipelineATPG) start(ctx context.Context, c *http.Client, _ string) (*tiers, error) {
	t := &tiers{}
	s, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	if t.base, err = t.serve(s); err != nil {
		s.Close()
		return nil, err
	}
	t.scraped = []string{t.base}
	if err := waitHealthy(ctx, c, t.base, nil); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (w *pipelineATPG) do(ctx context.Context, c *http.Client, t *tiers, i int, rec *record) error {
	data, err := timedPost(ctx, c, t.base+"/v1/pipeline", w.bodies[i], rec)
	if err != nil {
		return err
	}
	var rep pipeline.Report
	if err := decodeJSON(data, "pipeline report", &rep); err != nil {
		return err
	}
	err = checkReport(&rep, w.want[i], w.bounds[i])
	if legal(err) {
		rec.addFill(rep.Fill.Peak, w.bounds[i])
	}
	if err != nil {
		return err
	}
	if !rec.traced {
		return nil
	}
	l := rec.layers
	root := newSpan("request", rec.latency)
	byStage := make(map[string]*span)
	for _, st := range rep.Stages {
		name, _, _ := strings.Cut(st.Stage, "/")
		s := byStage[name]
		if s == nil {
			s = root.add(newSpan("pipeline."+name, 0))
			byStage[name] = s
		}
		s.Dur += msDur(st.DurationMillis)
	}
	for _, name := range pipelineStages {
		if s := byStage[name]; s != nil {
			l.mean("pipeline."+name+"_ms", durMS(s.Dur))
		} else {
			return fmt.Errorf("pipeline report has no %s stage", name)
		}
	}
	rec.root = root
	l.mean("server.http_ms", durMS(root.other()))
	l.mean("server.response_kb", kib(len(data)))
	return nil
}

// replay times the fill-side layers on the runs' ATPG cube sets, and
// takes the fill core's explain from a traced in-process DP fill, since
// pipeline reports carry no explain. The ATPG counts are the pool's: the
// served reports equal them, as every answer was checked.
func (w *pipelineATPG) replay(l *layers) error {
	if err := replayFills(l, w.fills, engineShape{}); err != nil {
		return err
	}
	for _, fc := range w.fills {
		set, err := cube.ParseSet(fc.cubes...)
		if err != nil {
			return err
		}
		var tr core.Trace
		if _, _, err := core.FillWith(set.Reorder(fc.perm), core.Options{Shards: 1, Trace: &tr}); err != nil {
			return err
		}
		addCore(l, &tr)
	}
	for _, a := range w.atpg {
		l.mean("atpg.patterns", float64(a.Patterns))
		l.mean("atpg.coverage_pct", 100*a.Coverage)
	}
	return nil
}
