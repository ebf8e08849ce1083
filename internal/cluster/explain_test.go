package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
)

// explainBatch builds a batch of all-DP jobs with enough Xs that the
// fill core runs every stage; distinct seeds keep the jobs from
// deduplicating into one engine run.
func explainBatch(jobs int, debug bool) client.BatchRequest {
	req := client.BatchRequest{Debug: debug}
	for j := 0; j < jobs; j++ {
		cubes := make([]string, 6)
		for i := range cubes {
			var sb strings.Builder
			for k := 0; k < 12; k++ {
				switch (i + j + k) % 4 {
				case 0:
					sb.WriteByte('0')
				case 2:
					sb.WriteByte('1')
				default:
					sb.WriteByte('X')
				}
			}
			cubes[i] = sb.String()
		}
		req.Jobs = append(req.Jobs, client.FillRequest{
			Name:  fmt.Sprintf("job-%d", j),
			Cubes: cubes,
			Seed:  int64(j + 1),
		})
	}
	return req
}

// traceStageSum folds a trace's named stages; the explain contract is
// that they sum exactly to the recorded fill total.
func traceStageSum(tr *core.Trace) int64 {
	var sum int64
	for _, st := range tr.StageNS() {
		sum += st.NS
	}
	return sum
}

// TestCoordinatorDebugReturnsFillExplains is the end-to-end explain
// contract: a debug:true batch through the coordinator comes back with
// one fill-core trace per job — carried from the workers' fill cores
// across the shard dispatch — whose stage timings sum exactly to the
// reported fill total, alongside the coordinator's own shard traces.
// Run under -race this also pins that per-request trace sinks are
// private: concurrent debug batches never share a trace.
func TestCoordinatorDebugReturnsFillExplains(t *testing.T) {
	co := newTestCoordinator(t, Config{ShardSize: 2}, newChaosWorker(t), newChaosWorker(t))
	waitHealthy(t, co, 2)
	c := coordClient(t, co)

	const batches = 3
	var wg sync.WaitGroup
	errs := make([]error, batches)
	resps := make([]*client.BatchResponse, batches)
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			resps[b], errs[b] = c.Batch(context.Background(), explainBatch(5, true))
		}(b)
	}
	wg.Wait()
	for b := 0; b < batches; b++ {
		if errs[b] != nil {
			t.Fatalf("batch %d: %v", b, errs[b])
		}
		resp := resps[b]
		if len(resp.Results) != 5 {
			t.Fatalf("batch %d answered %d results", b, len(resp.Results))
		}
		if len(resp.Shards) == 0 {
			t.Fatalf("batch %d carries no shard traces", b)
		}
		for i, item := range resp.Results {
			if item.Error != "" || item.Result == nil {
				t.Fatalf("batch %d job %d failed: %s", b, i, item.Error)
			}
			tr := item.Result.Explain
			if tr == nil {
				t.Fatalf("batch %d job %d returned no explain trace", b, i)
			}
			if got := traceStageSum(tr); got != tr.TotalNS || tr.TotalNS <= 0 {
				t.Fatalf("batch %d job %d: stages sum to %d, fill total %d", b, i, got, tr.TotalNS)
			}
			if tr.Rows <= 0 || tr.Cols <= 0 || tr.Shards <= 0 {
				t.Fatalf("batch %d job %d: trace shape/shards missing: %+v", b, i, tr)
			}
			if tr.Intervals > 0 && tr.BCP.Probes == 0 {
				t.Fatalf("batch %d job %d: BCP counters empty despite %d intervals", b, i, tr.Intervals)
			}
		}
	}

	// Without debug the wire payload stays lean end to end.
	resp, err := c.Batch(context.Background(), explainBatch(3, false))
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range resp.Results {
		if item.Result != nil && item.Result.Explain != nil {
			t.Fatalf("non-debug job %d leaked an explain trace", i)
		}
	}
}
