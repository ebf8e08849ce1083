package core

import (
	"fmt"
	"time"

	"repro/internal/cube"
)

// FillWindowed is a streaming variant of Fill for very long pattern
// sequences: the set is processed in windows of windowSize vectors with
// one vector of overlap, each window solved optimally by the exact BCP
// machinery. Memory and the BCP color range are bounded by the window
// instead of the whole sequence, at the cost of optimality: intervals
// are clipped at window seams, so the achieved peak can exceed the
// global optimum (never by more than the number of rows crossing a
// seam; in practice the gap is small — TestWindowedGapIsModest and
// BenchmarkCoreFillWindowed quantify it).
//
// This addresses the scalability question a production deployment hits
// when n reaches tens of thousands of patterns and the O(C²) lower
// bound of the monolithic solve dominates.
func FillWindowed(s *cube.Set, windowSize int) (*cube.Set, *Result, error) {
	return FillWindowedWith(s, windowSize, Options{})
}

// FillWindowedWith is FillWindowed with explicit execution options for
// the per-window fills.
func FillWindowedWith(s *cube.Set, windowSize int, opt Options) (*cube.Set, *Result, error) {
	if windowSize < 2 {
		return nil, nil, fmt.Errorf("core: window size %d < 2", windowSize)
	}
	n := s.Len()
	if n <= windowSize {
		return FillWith(s, opt)
	}
	tr := opt.Trace
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	// Each window's fill writes a fresh child trace, folded into the
	// aggregate as a WindowTrace line plus stage-time sums; the child
	// is reused across windows to keep the traced path allocation-flat.
	var childTrace Trace
	winOpt := opt
	out := cube.NewSet(s.Width)
	intervals := 0
	forced := 0
	// Process [base, base+windowSize); the next window starts at the
	// last vector of this one, whose filled values become its fixed
	// first column — this stitches windows without double-filling.
	// One flat-backed window set is reused across iterations: FillWith
	// reads its input without retaining it, so each window just copies
	// its slice of s (plus the seam carry) over the previous one.
	win := newColumnSet(s.Width, windowSize)
	var carry cube.Cube
	for base := 0; base < n-1; base += windowSize - 1 {
		hi := base + windowSize
		if hi > n {
			hi = n
		}
		win.Cubes = win.Cubes[:hi-base]
		if carry == nil {
			copy(win.Cubes[0], s.Cubes[base])
		} else {
			copy(win.Cubes[0], carry) // fully specified seam vector
		}
		for j := base + 1; j < hi; j++ {
			copy(win.Cubes[j-base], s.Cubes[j])
		}
		if tr != nil {
			childTrace = Trace{}
			winOpt.Trace = &childTrace
		}
		filled, res, err := FillWith(win, winOpt)
		if err != nil {
			return nil, nil, fmt.Errorf("core: window at %d: %w", base, err)
		}
		if tr != nil {
			tr.merge(&childTrace)
			tr.Windows = append(tr.Windows, WindowTrace{
				Base:       base,
				Len:        hi - base,
				Intervals:  res.NumIntervals,
				Forced:     res.ForcedUnit,
				Peak:       res.Peak,
				LowerBound: res.LowerBound,
				NS:         childTrace.TotalNS,
			})
		}
		intervals += res.NumIntervals
		forced += res.ForcedUnit
		start := 0
		if carry != nil {
			start = 1 // seam vector already emitted by the previous window
		}
		for j := start; j < filled.Len(); j++ {
			out.Append(filled.Cubes[j])
		}
		carry = filled.Cubes[filled.Len()-1]
		if hi == n {
			break
		}
	}
	peak, _, profile := out.ToggleStats()
	res := &Result{
		Peak:         peak,
		NumIntervals: intervals,
		ForcedUnit:   forced,
		Profile:      profile,
	}
	// The windowed peak is only a heuristic; report the true lower
	// bound of the whole sequence so callers can see the gap.
	var boundStart time.Time
	if tr != nil {
		boundStart = time.Now()
	}
	lb, err := Bottleneck(s)
	if err != nil {
		return nil, nil, err
	}
	res.LowerBound = lb
	if tr != nil {
		// The whole-sequence bound is bound work; count it with the
		// windows' bound time.
		tr.BoundNS += time.Since(boundStart).Nanoseconds()
		tr.Rows = s.Width
		tr.Cols = n
		tr.Intervals = intervals
		tr.ForcedUnit = forced
		tr.Peak = res.Peak
		tr.LowerBound = lb
		tr.seal(time.Since(start).Nanoseconds())
	}
	return out, res, nil
}
