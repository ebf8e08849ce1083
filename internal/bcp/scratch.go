package bcp

import "sync"

// lbScratch is the reusable working memory of the bound and of
// Algorithm 2: the intervals counting-sorted by start (CSR offsets plus
// flat deadline and index arrays, shared by every run), the count-only
// probe's per-deadline counts and per-cycle record, Assign's
// per-deadline FIFO lists, and the bitmap of non-empty deadlines both
// runs keep. Pooled because the fill hot path solves one instance per
// fill and these arrays would otherwise dominate its transient
// allocation.
//
// Invariant at rest (in the pool): cnt and set are all zero, so a run
// starts from an empty pending set; probe and assign restore it before
// they return. off is zeroed by get; every other array is overwritten
// before it is read (head, tail and next only under a set bit).
type lbScratch struct {
	off  []int32 // length C+2; see bucket
	ends []int32 // length k: deadlines in start order
	idx  []int32 // length k: interval indices in start order
	cnt  []int32 // length C
	set  []uint64
	last []int32 // length C
	head []int32 // length C: first start-order position due at each deadline
	tail []int32 // length C: last start-order position due at each deadline
	next []int32 // length k: FIFO successor of each start-order position
}

var lbPool = sync.Pool{New: func() any { return new(lbScratch) }}

func getLBScratch(numColors, k int) *lbScratch {
	sc := lbPool.Get().(*lbScratch)
	if cap(sc.cnt) < numColors {
		sc.off = make([]int32, numColors+2)
		sc.cnt = make([]int32, numColors)
		sc.set = make([]uint64, (numColors+63)/64)
		sc.last = make([]int32, numColors)
		sc.head = make([]int32, numColors)
		sc.tail = make([]int32, numColors)
	}
	if cap(sc.ends) < k {
		sc.ends = make([]int32, k)
		sc.idx = make([]int32, k)
		sc.next = make([]int32, k)
	}
	sc.off = sc.off[:numColors+2]
	clear(sc.off)
	sc.ends = sc.ends[:k]
	sc.idx = sc.idx[:k]
	sc.next = sc.next[:k]
	sc.cnt = sc.cnt[:numColors]
	sc.set = sc.set[:(numColors+63)/64]
	sc.last = sc.last[:numColors]
	sc.head = sc.head[:numColors]
	sc.tail = sc.tail[:numColors]
	return sc
}
