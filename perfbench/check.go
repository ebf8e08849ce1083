package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"repro/internal/pipeline"
	"repro/internal/server"
)

// The checks below judge the service's answers from the request and the
// library's reference values alone. Coverage and the toggle recount run
// on the strings as sent and received, not through the cube package, so a
// fault there cannot hide its own wrong answers.

// checkFill verifies one DP fill answer against its case: the ordering is
// the orderer's, the output (unless the request omitted it) is fully
// specified and keeps every care bit of the input, the reported profile,
// peak and total equal a recount, and the peak equals the BCP bound.
func checkFill(fc *fillCase, r *server.FillResponse, omitted bool) error {
	n, width := len(fc.cubes), len(fc.cubes[0])
	if r.Rows != n || r.Width != width {
		return fmt.Errorf("answer shape %dx%d, want %dx%d", r.Rows, r.Width, n, width)
	}
	if !slices.Equal(r.Perm, fc.perm) {
		return fmt.Errorf("applied ordering differs from the %s orderer's", fc.orderer)
	}
	if omitted {
		if len(r.Cubes) != 0 {
			return fmt.Errorf("answer carries %d cubes although the request omitted them", len(r.Cubes))
		}
	} else {
		profile, err := recount(fc, r.Cubes)
		if err != nil {
			return err
		}
		if !slices.Equal(profile, r.Profile) {
			return fmt.Errorf("reported toggle profile differs from the recount of the filled cubes")
		}
	}
	if n > 1 && len(r.Profile) != n-1 {
		return fmt.Errorf("toggle profile has %d cycles, want %d", len(r.Profile), n-1)
	}
	peak, total := 0, 0
	for _, v := range r.Profile {
		peak = max(peak, v)
		total += v
	}
	if r.Peak != peak || r.Total != total {
		return fmt.Errorf("reported peak/total %d/%d, recount %d/%d", r.Peak, r.Total, peak, total)
	}
	if r.Peak != fc.bound {
		return fmt.Errorf("%w: DP peak %d, BCP lower bound %d", errAboveBound, r.Peak, fc.bound)
	}
	return nil
}

// errAboveBound marks an answer that passed every other check but whose
// DP peak misses the BCP lower bound: a legal fill, just not an optimal
// one. Its peak still counts in peak_over_bound.
var errAboveBound = errors.New("peak differs from the BCP lower bound")

// legal reports whether a check result leaves the answer's peak
// trustworthy enough to count in peak_over_bound.
func legal(err error) bool { return err == nil || errors.Is(err, errAboveBound) }

// recount checks that out is a legal completion of the case's input in
// its applied order and returns its per-cycle toggle counts.
func recount(fc *fillCase, out []string) ([]int, error) {
	n, width := len(fc.cubes), len(fc.cubes[0])
	if len(out) != n {
		return nil, fmt.Errorf("answer has %d cubes, want %d", len(out), n)
	}
	profile := make([]int, 0, max(n-1, 0))
	for i, got := range out {
		in := fc.cubes[fc.perm[i]]
		if len(got) != width {
			return nil, fmt.Errorf("cube %d has width %d, want %d", i, len(got), width)
		}
		for j := 0; j < width; j++ {
			if got[j] != '0' && got[j] != '1' {
				return nil, fmt.Errorf("cube %d pin %d left unfilled (%q)", i, j, got[j])
			}
			if in[j] != 'X' && in[j] != got[j] {
				return nil, fmt.Errorf("cube %d pin %d: care bit %c overwritten with %c", i, j, in[j], got[j])
			}
		}
		if i > 0 {
			prev, d := out[i-1], 0
			for j := 0; j < width; j++ {
				if prev[j] != got[j] {
					d++
				}
			}
			profile = append(profile, d)
		}
	}
	return profile, nil
}

// checkSame verifies an asynchronous fill answer against the synchronous
// answer to the same job: ordering, peak, total and profile agree.
func checkSame(got, want *server.FillResponse) error {
	switch {
	case !slices.Equal(got.Perm, want.Perm):
		return fmt.Errorf("async ordering differs from the sync answer")
	case got.Peak != want.Peak || got.Total != want.Total:
		return fmt.Errorf("async peak/total %d/%d, sync %d/%d", got.Peak, got.Total, want.Peak, want.Total)
	case !slices.Equal(got.Profile, want.Profile):
		return fmt.Errorf("async toggle profile differs from the sync answer")
	}
	return nil
}

// canonicalReport encodes a pipeline report without its stage timings,
// the one part of a report that legitimately differs between runs.
func canonicalReport(rep *pipeline.Report) ([]byte, error) {
	cp := *rep
	cp.Stages = slices.Clone(rep.Stages)
	cp.ZeroTimings()
	return json.Marshal(&cp)
}

// checkReport verifies a served pipeline report: it equals the in-process
// report of the same request up to stage timings, and its DP fill peak
// equals the BCP bound of the ATPG cubes in the applied order.
func checkReport(got *pipeline.Report, want []byte, bound int) error {
	data, err := canonicalReport(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, want) {
		return fmt.Errorf("pipeline report differs from the in-process run of the same request")
	}
	if got.Fill == nil {
		return fmt.Errorf("pipeline report carries no fill stage")
	}
	if got.Fill.Peak != bound {
		return fmt.Errorf("pipeline %w: DP peak %d, BCP lower bound %d", errAboveBound, got.Fill.Peak, bound)
	}
	return nil
}
