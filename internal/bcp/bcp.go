// Package bcp implements the Bottleneck Coloring Problem (BCP) of §V of
// the DP-fill paper: given intervals over a discrete color range, assign
// each interval one color inside it so that the maximum number of
// intervals sharing a color (the bottleneck) is minimized.
//
// In the hotel analogy of §V-A, colors are days and intervals are guest
// requests; the hotel wants to minimize the busiest day's occupancy. In
// the X-filling application, colors are test cycles (boundaries between
// consecutive test vectors) and each interval is a row stretch that must
// place exactly one toggle.
//
// The package provides the paper's lower bound and its earliest-
// deadline greedy assignment (Algorithm 2), plus an exhaustive solver
// used to verify optimality in tests. The paper leaves open which of
// several pending intervals with the same deadline Algorithm 2 places
// first; its optimality theorem holds for any choice. Here the rule is
// part of the definition: first admitted, first placed, so the earlier
// Start goes first and, between equal Starts, the lower index. Every
// rule places the same multiset of deadlines at every color, so the
// bottleneck, the per-color counts and the bound do not depend on it;
// which interval gets which color does.
//
// The paper computes the bound with Algorithm 1, a maximization over
// every color window; by its optimality theorem (§VI-C) that number is
// also the smallest capacity at which Algorithm 2 places every
// interval, and that is how Bound finds it: a few linear count-only
// runs of Algorithm 2. Each bound comes with a witness window that
// proves it the Algorithm 1 way. Colors are 0-based: an instance with
// NumColors = C uses colors 0..C-1.
package bcp

import (
	"fmt"
	"math/bits"
	"time"
)

// Stats is the solver's explain record: how many probes the bound
// took, plus wall time split between the bound and the assignment. A
// nil *Stats costs the hot path nothing; core threads one through
// SolveStats when a fill runs with a trace sink. Counters accumulate,
// so one Stats can aggregate several solves (e.g. every window of a
// windowed fill).
type Stats struct {
	// Probes counts the Algorithm 2 runs the bound took: count-only
	// probes, plus the coloring runs a solve makes at the capacity
	// that would end the search.
	Probes int `json:"probes"`
	// StartsScanned, StartsSkipped, WindowsScanned and SuffixBreaks
	// were the counters of the Algorithm 1 window sweep. The bound no
	// longer sweeps windows, so they are always 0; they stay for
	// readers of the explain record's JSON shape.
	StartsScanned  int `json:"starts_scanned"`
	StartsSkipped  int `json:"starts_skipped"`
	WindowsScanned int `json:"windows_scanned"`
	SuffixBreaks   int `json:"suffix_breaks"`
	// BoundNS and AssignNS split the solve's wall time between the
	// lower bound (probes and witness check) and Algorithm 2 (EDF
	// assignment, including the legality check).
	BoundNS  int64 `json:"bound_ns"`
	AssignNS int64 `json:"assign_ns"`
}

// Add accumulates o into st.
func (st *Stats) Add(o Stats) {
	st.Probes += o.Probes
	st.StartsScanned += o.StartsScanned
	st.StartsSkipped += o.StartsSkipped
	st.WindowsScanned += o.WindowsScanned
	st.SuffixBreaks += o.SuffixBreaks
	st.BoundNS += o.BoundNS
	st.AssignNS += o.AssignNS
}

// Interval is one BCP request: a color in [Start, End] (inclusive, both
// 0-based) must be assigned to it.
type Interval struct {
	Start, End int
}

// Valid reports whether the interval is well-formed and lies inside a
// color range of size numColors.
func (iv Interval) Valid(numColors int) bool {
	return 0 <= iv.Start && iv.Start <= iv.End && iv.End < numColors
}

// Contains reports whether color c may legally be assigned to iv.
func (iv Interval) Contains(c int) bool { return iv.Start <= c && c <= iv.End }

// Instance is a BCP problem: a set of intervals over colors 0..NumColors-1.
type Instance struct {
	NumColors int
	Intervals []Interval
}

// NewInstance validates and builds an instance. It returns an error if
// any interval falls outside the color range or is inverted.
func NewInstance(numColors int, intervals []Interval) (*Instance, error) {
	if numColors < 0 {
		return nil, fmt.Errorf("bcp: negative color count %d", numColors)
	}
	for i, iv := range intervals {
		if !iv.Valid(numColors) {
			return nil, fmt.Errorf("bcp: interval %d = [%d,%d] invalid for %d colors",
				i, iv.Start, iv.End, numColors)
		}
	}
	return &Instance{NumColors: numColors, Intervals: intervals}, nil
}

// Solution is a complete coloring of an instance.
type Solution struct {
	// Colors[i] is the color assigned to Intervals[i].
	Colors []int
	// Bottleneck is the maximum number of intervals sharing any color.
	Bottleneck int
	// LowerBound is the witness-checked lower bound; by the paper's
	// theorem it always equals Bottleneck for solutions produced by
	// Solve.
	LowerBound int
}

// Histogram returns, for each color, the number of intervals assigned to
// it. colors[i] must be a valid color for instance inst.
func (inst *Instance) Histogram(colors []int) []int {
	h := make([]int, inst.NumColors)
	for _, c := range colors {
		h[c]++
	}
	return h
}

// CheckColoring verifies that colors is a legal coloring of inst (every
// interval received a color inside its range) and returns the bottleneck.
func (inst *Instance) CheckColoring(colors []int) (int, error) {
	if len(colors) != len(inst.Intervals) {
		return 0, fmt.Errorf("bcp: coloring has %d entries for %d intervals",
			len(colors), len(inst.Intervals))
	}
	h := make([]int, inst.NumColors)
	for i, c := range colors {
		iv := inst.Intervals[i]
		if c < 0 || c >= inst.NumColors || !iv.Contains(c) {
			return 0, fmt.Errorf("bcp: interval %d = [%d,%d] assigned illegal color %d",
				i, iv.Start, iv.End, c)
		}
		h[c]++
	}
	max := 0
	for _, v := range h {
		if v > max {
			max = v
		}
	}
	return max, nil
}

// witness is the color window [lo, hi] that proves a lower bound lb:
// it wholly contains count intervals, more than (lb-1) per color, so
// any coloring puts at least lb of them on one of its colors. This is
// Algorithm 1's argument for the one window that binds.
type witness struct {
	lo, hi, count int
}

// LowerBound returns the paper's lower bound on the bottleneck: the
// Algorithm 1 value, the maximum over all color windows [i,j] of
// ceil(T(i,j)/(j-i+1)) where T(i,j) counts the intervals wholly
// contained in the window. It is Bound without the error.
func (inst *Instance) LowerBound() int {
	lb, _, _ := inst.bound(nil)
	return lb
}

// Bound computes the lower bound as the smallest capacity at which a
// count-only Algorithm 2 places every interval, and proves it with a
// witness window that holds more than (lb-1) intervals per color. By
// the optimality theorem (§VI-C) the two numbers coincide, so the
// result equals the Algorithm 1 window maximum; an error means the
// witness failed to prove the bound, which only a bug can cause.
//
// Probing starts at ceil(k/C) for k intervals over C colors, whose
// witness is the whole range [0, C-1]. While a probe fails, the
// capacity gallops upward and then bisects below the largest number of
// intervals sharing one start, a capacity at which Algorithm 2 never
// has to defer an interval. Each probe costs O(C+k) plus a word-
// parallel skip over empty deadlines. A failed probe at capacity c
// yields its own witness: the EDF run missed a deadline at cycle t, and
// since the last cycle s before t where it idled or placed an interval
// due after t, it has filled every cycle with intervals that started
// after s and are due by t. The window [s+1, t] therefore holds more
// than c(t-s) intervals, and the last failed probe, at c = lb-1, proves
// lb.
func (inst *Instance) Bound() (int, error) {
	lb, _, err := inst.bound(nil)
	return lb, err
}

// bound is Bound with an optional explain sink, returning the witness.
func (inst *Instance) bound(st *Stats) (int, witness, error) {
	if len(inst.Intervals) == 0 {
		return 0, witness{lo: 0, hi: inst.NumColors - 1}, nil
	}
	sc := getLBScratch(inst.NumColors, len(inst.Intervals))
	defer lbPool.Put(sc)
	lb, w, _, err := inst.search(sc, st, nil)
	return lb, w, err
}

// search buckets the intervals into sc and finds the bound. With
// colors non-nil, each run at capacity lo+1 (the one whose success
// ends the search) is a full Algorithm 2 run that writes colors, and
// placed reports whether colors hold a legal coloring at the returned
// bound. When st is non-nil, those runs' wall time goes to AssignNS
// and the rest of the search's to BoundNS.
func (inst *Instance) search(sc *lbScratch, st *Stats, colors []int) (lb int, w witness, placed bool, err error) {
	var t0 time.Time
	var assignNS int64
	if st != nil {
		t0 = time.Now()
	}
	k, numColors := len(inst.Intervals), inst.NumColors
	hi := sc.bucket(inst.Intervals, numColors) // always feasible
	lo := (k+numColors-1)/numColors - 1        // known infeasible
	w = witness{lo: 0, hi: numColors - 1}
	probes := 0
	feasible := func(c int) bool {
		probes++
		var t int
		if colors != nil && c == lo+1 {
			var t1 time.Time
			if st != nil {
				t1 = time.Now()
			}
			t = sc.assign(numColors, c, colors)
			placed = t < 0
			if st != nil {
				assignNS += time.Since(t1).Nanoseconds()
			}
		} else {
			t = sc.probe(numColors, c)
		}
		if t < 0 {
			return true
		}
		w = witness{lo: sc.slack(t) + 1, hi: t}
		return false
	}
	if !feasible(lo + 1) {
		lo++
		for step := 1; lo+step < hi; step *= 2 {
			if feasible(lo + step) {
				hi = lo + step
				break
			}
			lo += step
		}
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if feasible(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
	} else {
		hi = lo + 1
	}
	for _, iv := range inst.Intervals {
		if w.lo <= iv.Start && iv.End <= w.hi {
			w.count++
		}
	}
	if st != nil {
		st.Probes += probes
		st.AssignNS += assignNS
		st.BoundNS += time.Since(t0).Nanoseconds() - assignNS
	}
	if w.count <= lo*(w.hi-w.lo+1) {
		return 0, w, false, fmt.Errorf("bcp: witness [%d,%d] holds %d intervals, not more than %d per color: bound %d unproven",
			w.lo, w.hi, w.count, lo, hi)
	}
	return hi, w, placed, nil
}

// bucket counting-sorts the intervals by start into the scratch's CSR
// arrays, in index order within a start: the deadlines and indices of
// the intervals starting at color s are ends and idx at
// [off[s], off[s+1]). It returns the largest start bucket.
func (sc *lbScratch) bucket(ivs []Interval, numColors int) int {
	off := sc.off
	for _, iv := range ivs {
		off[iv.Start+2]++
	}
	largest := int32(0)
	for s := 2; s < numColors+2; s++ {
		largest = max(largest, off[s])
		off[s] += off[s-1]
	}
	for i, iv := range ivs {
		p := off[iv.Start+1]
		sc.ends[p] = int32(iv.End)
		sc.idx[p] = int32(i)
		off[iv.Start+1]++
	}
	return int(largest)
}

// probe runs Algorithm 2 at capacity c on counts alone: the pending
// intervals are a count per deadline plus a bitmap of the non-empty
// deadlines, so there is no interval identity. It returns -1 when
// every interval is placed, or else the first cycle t that ends with
// an interval due at t still pending. Per cycle it records in sc.last
// the latest deadline it placed, or numColors if it idled, for slack
// to find the witness.
//
// dpvet:hot
func (sc *lbScratch) probe(numColors, c int) int {
	cnt, set, last := sc.cnt, sc.set, sc.last
	capacity := int32(c)
	lo, pending := numColors, 0 // lo never exceeds the earliest pending deadline
	for x := 0; x < numColors; x++ {
		arrivals := sc.ends[sc.off[x]:sc.off[x+1]]
		for _, e := range arrivals {
			if cnt[e] == 0 {
				set[e>>6] |= 1 << (uint(e) & 63)
			}
			cnt[e]++
			lo = min(lo, int(e))
		}
		pending += len(arrivals)
		budget := capacity
		for budget > 0 && pending > 0 {
			lo = nextSet(set, lo)
			take := min(budget, cnt[lo])
			cnt[lo] -= take
			budget -= take
			pending -= int(take)
			if cnt[lo] == 0 {
				set[lo>>6] &^= 1 << (uint(lo) & 63)
			}
		}
		if budget > 0 {
			last[x] = int32(numColors)
		} else {
			last[x] = int32(lo)
		}
		if cnt[x] > 0 {
			clear(cnt)
			clear(set)
			return x
		}
	}
	return -1
}

// assign is probe with interval identity: it runs Algorithm 2 at
// capacity c and writes each placed interval's color into colors
// (indexed like the instance's intervals). The pending intervals wait
// in one FIFO list per deadline, threaded through next in start order
// with head and tail per deadline, and the same bitmap marks the
// non-empty lists. So the earliest deadline is a word-parallel scan
// away, and among equal deadlines the interval admitted first (earlier
// start, then lower index) is placed first. It returns and records
// exactly what probe does at the same capacity, because both place
// the same multiset of deadlines at every cycle.
//
// dpvet:hot
func (sc *lbScratch) assign(numColors, c int, colors []int) int {
	ends, idx, set, last := sc.ends, sc.idx, sc.set, sc.last
	head, tail, next := sc.head, sc.tail, sc.next
	lo, pending := numColors, 0 // lo never exceeds the earliest pending deadline
	for x := 0; x < numColors; x++ {
		from, to := sc.off[x], sc.off[x+1]
		for p := from; p < to; p++ {
			e := ends[p]
			if bit := uint64(1) << (uint(e) & 63); set[e>>6]&bit == 0 {
				set[e>>6] |= bit
				head[e] = p
			} else {
				next[tail[e]] = p
			}
			tail[e] = p
			lo = min(lo, int(e))
		}
		pending += int(to - from)
		budget := c
		for budget > 0 && pending > 0 {
			lo = nextSet(set, lo)
			p := head[lo]
			colors[idx[p]] = x
			budget--
			pending--
			if p == tail[lo] {
				set[lo>>6] &^= 1 << (uint(lo) & 63)
			} else {
				head[lo] = next[p]
			}
		}
		if budget > 0 {
			last[x] = int32(numColors)
		} else {
			last[x] = int32(lo)
		}
		if set[x>>6]&(1<<(uint(x)&63)) != 0 {
			clear(set)
			return x
		}
	}
	return -1
}

// slack returns the last cycle s before t at which the failed run
// idled or placed an interval due after t, or -1 if there is none.
func (sc *lbScratch) slack(t int) int {
	s := t - 1
	for s >= 0 && int(sc.last[s]) <= t {
		s--
	}
	return s
}

// nextSet returns the first set bit at or after i; one must exist.
func nextSet(set []uint64, i int) int {
	w := i >> 6
	if word := set[w] >> (uint(i) & 63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; set[w] == 0; w++ {
	}
	return w<<6 + bits.TrailingZeros64(set[w])
}

// Assign implements Algorithm 2: process colors in increasing order,
// admit the intervals whose Start equals the current color, and give
// the current color to at most `capacity` pending intervals, earliest
// deadline (End) first. Ties between equal deadlines go to the
// interval admitted first: the earlier Start, then the lower index.
//
// With capacity = LowerBound(), the paper's theorem (§VI-C) guarantees
// every interval is placed by its End, so the coloring is legal and
// its bottleneck equals the lower bound — i.e. it is optimal. Assign
// nevertheless returns an error when an interval is still pending at
// the end of its End color, which means the capacity was too small
// (caller misuse, not an algorithmic failure).
func (inst *Instance) Assign(capacity int) ([]int, error) {
	k := len(inst.Intervals)
	if k == 0 {
		return nil, nil
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("bcp: capacity %d must be positive", capacity)
	}
	sc := getLBScratch(inst.NumColors, k)
	defer lbPool.Put(sc)
	sc.bucket(inst.Intervals, inst.NumColors)
	colors := make([]int, k)
	if t := sc.assign(inst.NumColors, capacity, colors); t >= 0 {
		i := sc.idx[sc.head[t]]
		return nil, fmt.Errorf("bcp: interval %d = [%d,%d] missed its deadline (capacity %d too small)",
			i, inst.Intervals[i].Start, t, capacity)
	}
	return colors, nil
}

// Solve computes the lower bound and runs Algorithm 2 at it, returning
// the optimal coloring. The returned Solution always has Bottleneck ==
// LowerBound, which is the paper's optimality result.
func (inst *Instance) Solve() (*Solution, error) {
	return inst.SolveStats(nil)
}

// SolveStats is Solve with an optional explain sink: when st is
// non-nil it accumulates the probe count and the wall time of the
// bound and assignment phases. A nil st takes the exact untimed path
// of Solve. A bound whose witness fails to prove it is an error.
//
// The search for the bound runs its decisive capacity as a full
// Algorithm 2 (see search), so when that run succeeds its coloring is
// the answer and the feasibility proof at once; only a bound the
// search reached without such a run (the largest start bucket, or a
// galloping probe) costs one more run.
func (inst *Instance) SolveStats(st *Stats) (*Solution, error) {
	k := len(inst.Intervals)
	if k == 0 {
		return &Solution{Colors: nil, Bottleneck: 0, LowerBound: 0}, nil
	}
	sc := getLBScratch(inst.NumColors, k)
	defer lbPool.Put(sc)
	colors := make([]int, k)
	lb, _, placed, err := inst.search(sc, st, colors)
	if err != nil {
		return nil, err
	}
	var t1 time.Time
	if st != nil {
		t1 = time.Now()
	}
	if !placed {
		if t := sc.assign(inst.NumColors, lb, colors); t >= 0 {
			return nil, fmt.Errorf("bcp: Algorithm 2 misses deadline %d at the proven bound %d", t, lb)
		}
	}
	bn, err := inst.CheckColoring(colors)
	if st != nil {
		st.AssignNS += time.Since(t1).Nanoseconds()
	}
	if err != nil {
		return nil, err
	}
	return &Solution{Colors: colors, Bottleneck: bn, LowerBound: lb}, nil
}

// BruteForce exhaustively searches all colorings and returns the true
// optimal bottleneck. It is exponential in the number of intervals and
// exists to validate Solve in tests; instances beyond ~15 intervals or
// wide ranges will be slow.
func (inst *Instance) BruteForce() int {
	k := len(inst.Intervals)
	if k == 0 {
		return 0
	}
	hist := make([]int, inst.NumColors)
	best := k + 1
	var rec func(i, cur int)
	rec = func(i, cur int) {
		if cur >= best {
			return // prune: can only get worse
		}
		if i == k {
			best = cur
			return
		}
		iv := inst.Intervals[i]
		for c := iv.Start; c <= iv.End; c++ {
			hist[c]++
			next := cur
			if hist[c] > next {
				next = hist[c]
			}
			rec(i+1, next)
			hist[c]--
		}
	}
	rec(0, 0)
	return best
}
