package bcp

import "sort"

// lowerBoundRef is Algorithm 1 as the paper states it, the reference
// oracle the probe bound is pinned to: the maximum over every color
// window [i,j] of ceil(T(i,j)/(j-i+1)), where T(i,j) counts the
// intervals wholly inside the window, computed with a rolling row over
// colors in O(C²+k) time.
func (inst *Instance) lowerBoundRef() int {
	if len(inst.Intervals) == 0 {
		return 0
	}
	c := inst.NumColors
	endsByStart := make([][]int, c)
	for _, iv := range inst.Intervals {
		endsByStart[iv.Start] = append(endsByStart[iv.Start], iv.End)
	}
	for s := range endsByStart {
		sort.Ints(endsByStart[s])
	}

	lb := 0
	t := make([]int, c)
	for i := c - 1; i >= 0; i-- {
		ends := endsByStart[i]
		p := 0
		for j := i; j < c; j++ {
			for p < len(ends) && ends[p] <= j {
				p++
			}
			count := t[j] + p
			window := j - i + 1
			if b := (count + window - 1) / window; b > lb {
				lb = b
			}
		}
		p = 0
		for j := i; j < c; j++ {
			for p < len(ends) && ends[p] <= j {
				p++
			}
			t[j] += p
		}
	}
	return lb
}
