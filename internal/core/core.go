// Package core implements DP-fill, the paper's primary contribution: an
// optimal X-filling algorithm that minimizes the peak number of input
// toggles between consecutive test cubes of an ordered cube set.
//
// The algorithm (§V–§VI of the paper):
//
//  1. View the cube sequence T1..Tn as an m×n trit matrix A whose rows
//     are input pins.
//  2. Pre-fill every equal-boundary X stretch (0X..X0 / 1X..X1) with its
//     boundary value, and every edge stretch (leading/trailing Xs) with
//     its single neighbouring care bit; fully-X rows become constant 0.
//     None of these can ever force a toggle, so an optimal solution with
//     these choices exists (§V-C preprocessing).
//  3. Every unequal-boundary stretch (0X..X1 / 1X..X0) with care bits at
//     columns p < q must toggle exactly once somewhere in cycles
//     p..q-1 (cycle j = boundary between vectors j and j+1). It becomes
//     the BCP interval [p, q-1]. Adjacent differing care bits (q = p+1)
//     yield the unit interval [p,p]: a forced toggle. Folding forced
//     toggles into the BCP as unit intervals is what lets Algorithm 2's
//     optimality argument cover the whole objective.
//  4. Solve the Bottleneck Coloring Problem optimally (package bcp) and
//     reconstruct: an interval colored j fills columns p..j with the left
//     care value and columns j+1..q with the right care value.
//
// The resulting peak equals the BCP lower bound, which is provably the
// minimum achievable peak toggle count for the given ordering.
package core

import (
	"fmt"
	"time"

	"repro/internal/bcp"
	"repro/internal/cube"
)

// ToggleInterval records one unequal-boundary stretch and its BCP
// interval. LeftCol/RightCol are the bounding care-bit columns in the
// cube sequence; the BCP interval is [LeftCol, RightCol-1] in cycle
// space.
type ToggleInterval struct {
	// Row is the pin the stretch lives on.
	Row int
	// LeftCol and RightCol are the columns of the bounding care bits,
	// LeftCol < RightCol.
	LeftCol, RightCol int
	// LeftVal is the care value at LeftCol (the value at RightCol is its
	// complement).
	LeftVal cube.Trit
}

// Interval returns the BCP interval of cycles in which the stretch's
// single toggle may be placed.
func (ti ToggleInterval) Interval() bcp.Interval {
	return bcp.Interval{Start: ti.LeftCol, End: ti.RightCol - 1}
}

// Mapping is the outcome of the cube→BCP reduction: a partially filled
// set in which only unequal-boundary stretches remain as Xs, plus the
// interval list describing them.
type Mapping struct {
	// Prefilled is the set after step 2 above. All remaining X bits
	// belong to exactly one ToggleInterval.
	Prefilled *cube.Set
	// Intervals lists the toggle intervals, including unit intervals for
	// forced toggles (which contain no X bits but constrain the peak).
	Intervals []ToggleInterval
	// NumCycles is n-1: the number of consecutive-vector boundaries.
	NumCycles int
}

// Map performs the reduction of §V-C on a copy of the input set. The
// input set is not modified.
//
// Map is the serial per-trit reference implementation; MapSharded is
// the packed, parallel production path and produces identical output
// (TestMapShardedMatchesSerial pins the equivalence).
func Map(s *cube.Set) *Mapping {
	out := s.Clone()
	n := out.Len()
	m := &Mapping{Prefilled: out, NumCycles: maxInt(0, n-1)}

	for i := 0; i < out.Width; i++ {
		row := out.Row(i)
		mapRow(i, row, m)
		out.SetRow(i, row)
	}
	return m
}

// mapRow pre-fills the fillable stretches of one row in place and
// appends its toggle intervals (including forced unit toggles) to m.
func mapRow(rowIdx int, row []cube.Trit, m *Mapping) {
	n := len(row)
	// Find the care positions.
	first := -1
	for j := 0; j < n; j++ {
		if row[j] != cube.X {
			first = j
			break
		}
	}
	if first == -1 {
		// Fully-X row: any constant works; use 0.
		for j := range row {
			row[j] = cube.Zero
		}
		return
	}
	// Leading Xs copy the first care bit (no toggle possible).
	for j := 0; j < first; j++ {
		row[j] = row[first]
	}
	// Walk consecutive care-bit pairs.
	prev := first
	for j := first + 1; j < n; j++ {
		if row[j] == cube.X {
			continue
		}
		if row[prev] == row[j] {
			// Equal boundaries: pre-fill with the common value.
			for t := prev + 1; t < j; t++ {
				row[t] = row[prev]
			}
		} else {
			// Unequal boundaries: one toggle somewhere in cycles
			// prev..j-1. Keep the Xs; reconstruction fills them.
			m.Intervals = append(m.Intervals, ToggleInterval{
				Row: rowIdx, LeftCol: prev, RightCol: j, LeftVal: row[prev],
			})
		}
		prev = j
	}
	// Trailing Xs copy the last care bit.
	for j := prev + 1; j < n; j++ {
		row[j] = row[prev]
	}
}

// Result summarizes a DP-fill run.
type Result struct {
	// Peak is the achieved peak toggle count — optimal for the ordering.
	Peak int
	// LowerBound is the Algorithm 1 bound; always equals Peak.
	LowerBound int
	// NumIntervals is the number of BCP intervals, counting forced unit
	// toggles.
	NumIntervals int
	// ForcedUnit is how many of the intervals were forced (adjacent
	// differing care bits with no X between them).
	ForcedUnit int
	// Profile is the per-cycle toggle count of the filled set.
	Profile []int
}

// Fill runs the complete DP-fill algorithm on the ordered set s and
// returns a fully specified set achieving the minimum possible peak
// toggle count for that ordering, together with run statistics. The
// input set is not modified.
//
// The whole hot path is word-parallel on the bit-packed row planes:
// the stretch-extraction scan (fanned out across row shards sized to
// the machine; use FillWith to pin the shard count), the §V-D
// reconstruction (two word-OR spans per interval instead of a per-trit
// loop over a cloned set), and the toggle-profile verification
// (XOR-shift + popcount). The planes themselves come from a sync.Pool
// arena, so steady serving load reuses buffers instead of allocating
// two m×⌈n/64⌉ planes per fill. Every schedule produces byte-identical
// output, pinned against the per-trit reference path by differential
// tests.
func Fill(s *cube.Set) (*cube.Set, *Result, error) {
	return FillWith(s, Options{})
}

// FillWith is Fill with explicit execution options. With opt.Trace
// set, the run's per-stage wall times, BCP prune counters and arena
// reuse land in the sink; each stage's clock reads sit behind a nil
// check so the untraced hot path stays branch-predictable.
func FillWith(s *cube.Set, opt Options) (*cube.Set, *Result, error) {
	tr := opt.Trace
	var start, mark time.Time
	if tr != nil {
		start = time.Now()
		mark = start
	}
	n := s.Len()
	rows := s.Width
	ar := getArena()
	defer putArena(ar)
	reused := ar.pr != nil
	pr := cube.PackRowsInto(ar.pr, s)
	ar.pr = pr
	if tr != nil {
		now := time.Now()
		tr.PackNS += now.Sub(mark).Nanoseconds()
		mark = now
	}
	shards := resolveShards(opt.Shards, rows, rows*n)
	ar.ivs = scanSharded(pr, shards, ar.ivs[:0])
	intervals := ar.ivs

	bcpIvs := ar.bcpIvs[:0]
	forced := 0
	for _, ti := range intervals {
		bcpIvs = append(bcpIvs, ti.Interval())
		if ti.RightCol == ti.LeftCol+1 {
			forced++
		}
	}
	ar.bcpIvs = bcpIvs
	if tr != nil {
		tr.ScanNS += time.Since(mark).Nanoseconds()
	}
	inst, err := bcp.NewInstance(maxInt(0, n-1), bcpIvs)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building BCP instance: %w", err)
	}
	var solveStats bcp.Stats
	var bcpStats *bcp.Stats
	if tr != nil {
		bcpStats = &solveStats
	}
	sol, err := inst.SolveStats(bcpStats)
	if err != nil {
		return nil, nil, fmt.Errorf("core: solving BCP: %w", err)
	}
	if tr != nil {
		// The bound/assign split comes from the solver's own clocks;
		// the sliver around them (instance validation) lands in OtherNS.
		tr.BCP.Add(solveStats)
		tr.BoundNS += solveStats.BoundNS
		tr.AssignNS += solveStats.AssignNS
		mark = time.Now()
	}

	// §V-D reconstruction on the packed planes: the interval colored j
	// toggles between vectors j and j+1, so columns LeftCol+1..j take
	// the left care value and j+1..RightCol-1 its complement.
	for i, ti := range intervals {
		j := sol.Colors[i]
		pr.FillSpan(ti.Row, ti.LeftCol+1, j, ti.LeftVal)
		pr.FillSpan(ti.Row, j+1, ti.RightCol-1, ti.LeftVal.Neg())
	}

	profile := pr.ToggleProfile()
	peak := 0
	for _, v := range profile {
		if v > peak {
			peak = v
		}
	}
	if tr != nil {
		now := time.Now()
		tr.ReconstructNS += now.Sub(mark).Nanoseconds()
		mark = now
	}
	res := &Result{
		Peak:         peak,
		LowerBound:   sol.LowerBound,
		NumIntervals: len(bcpIvs),
		ForcedUnit:   forced,
		Profile:      profile,
	}
	if res.Peak != sol.LowerBound {
		// Cannot happen if the optimality theorem holds; guard anyway so
		// corruption is loud rather than silently sub-optimal.
		return nil, nil, fmt.Errorf("core: reconstruction peak %d != lower bound %d",
			res.Peak, sol.LowerBound)
	}
	out := newColumnSet(rows, n)
	unpackColumns(pr, out, shards)
	if tr != nil {
		tr.UnpackNS += time.Since(mark).Nanoseconds()
		tr.Rows = rows
		tr.Cols = n
		tr.Shards = shards
		tr.ArenaReused = tr.ArenaReused || reused
		tr.Intervals += len(bcpIvs)
		tr.ForcedUnit += forced
		tr.Peak = res.Peak
		tr.LowerBound = res.LowerBound
		tr.seal(time.Since(start).Nanoseconds())
	}
	return out, res, nil
}

// fillMapping solves and reconstructs a completed reduction on the
// unpacked representation. It is the per-trit reference path FillWith
// is differentially tested against (TestFillMatchesReference), and the
// back half of Map-based callers.
func fillMapping(mp *Mapping) (*cube.Set, *Result, error) {
	intervals := make([]bcp.Interval, len(mp.Intervals))
	forced := 0
	for i, ti := range mp.Intervals {
		intervals[i] = ti.Interval()
		if ti.RightCol == ti.LeftCol+1 {
			forced++
		}
	}
	inst, err := bcp.NewInstance(mp.NumCycles, intervals)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building BCP instance: %w", err)
	}
	sol, err := inst.Solve()
	if err != nil {
		return nil, nil, fmt.Errorf("core: solving BCP: %w", err)
	}
	filled := Reconstruct(mp, sol.Colors)
	res := &Result{
		Peak:         filled.PeakToggles(),
		LowerBound:   sol.LowerBound,
		NumIntervals: len(intervals),
		ForcedUnit:   forced,
		Profile:      filled.ToggleProfile(),
	}
	if res.Peak != sol.LowerBound {
		return nil, nil, fmt.Errorf("core: reconstruction peak %d != lower bound %d",
			res.Peak, sol.LowerBound)
	}
	return filled, res, nil
}

// Bottleneck computes the optimal peak toggle count of the ordering
// without materializing the filled set. It is the evaluation primitive
// Algorithm 3 (I-Ordering) calls once per candidate interleaving; it
// runs the packed single-shard scan on pooled planes and skips the
// pre-filled set entirely (callers such as I-Ordering and the batch
// engine already parallelize at coarser granularity).
func Bottleneck(s *cube.Set) (int, error) {
	ar := getArena()
	defer putArena(ar)
	bcpIvs := ar.bcpIvs[:0]
	if s.Width > 0 && s.Len() > 0 {
		pr := cube.PackRowsInto(ar.pr, s)
		ar.pr = pr
		ar.ivs = scanRowsAppend(ar.ivs[:0], pr, 0, s.Width)
		for _, ti := range ar.ivs {
			bcpIvs = append(bcpIvs, ti.Interval())
		}
	}
	ar.bcpIvs = bcpIvs
	inst, err := bcp.NewInstance(maxInt(0, s.Len()-1), bcpIvs)
	if err != nil {
		return 0, err
	}
	return inst.Bound()
}

// Reconstruct applies §V-D: given the mapping and a BCP coloring (one
// color per interval, in the order of mp.Intervals), it fills the
// remaining Xs and returns the fully specified set. The toggle of
// interval colored j lands between vectors j and j+1.
func Reconstruct(mp *Mapping, colors []int) *cube.Set {
	out := mp.Prefilled.Clone()
	for i, ti := range mp.Intervals {
		j := colors[i]
		left := ti.LeftVal
		right := left.Neg()
		for col := ti.LeftCol + 1; col <= j; col++ {
			out.Cubes[col][ti.Row] = left
		}
		for col := j + 1; col < ti.RightCol; col++ {
			out.Cubes[col][ti.Row] = right
		}
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
