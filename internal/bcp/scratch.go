package bcp

import "sync"

// lbScratch is the reusable working memory of the bound: the deadlines
// counting-sorted by start (CSR offsets plus one flat array), and the
// probe's per-deadline counts, non-empty bitmap and per-cycle record.
// Pooled because the fill hot path computes one bound per fill and
// these arrays would otherwise dominate its transient allocation.
//
// Invariant at rest (in the pool): cnt and set are all zero, so a
// probe starts from an empty pending set; probe restores it before it
// returns. off is zeroed by get; ends and last are overwritten before
// they are read.
type lbScratch struct {
	off  []int32 // length C+2; see bucket
	ends []int32 // length k
	cnt  []int32 // length C
	set  []uint64
	last []int32 // length C
}

var lbPool = sync.Pool{New: func() any { return new(lbScratch) }}

func getLBScratch(numColors, k int) *lbScratch {
	sc := lbPool.Get().(*lbScratch)
	if cap(sc.cnt) < numColors {
		sc.off = make([]int32, numColors+2)
		sc.cnt = make([]int32, numColors)
		sc.set = make([]uint64, (numColors+63)/64)
		sc.last = make([]int32, numColors)
	}
	if cap(sc.ends) < k {
		sc.ends = make([]int32, k)
	}
	sc.off = sc.off[:numColors+2]
	clear(sc.off)
	sc.ends = sc.ends[:k]
	sc.cnt = sc.cnt[:numColors]
	sc.set = sc.set[:(numColors+63)/64]
	sc.last = sc.last[:numColors]
	return sc
}
