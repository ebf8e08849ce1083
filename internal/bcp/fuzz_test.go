package bcp

import (
	"slices"
	"testing"
)

// fuzzInstance decodes arbitrary bytes into a small instance: the first
// byte picks 1..24 colors, and each following pair of bytes is one
// interval's start and length, folded into the color range. At most 40
// intervals are read.
func fuzzInstance(data []byte) *Instance {
	if len(data) == 0 {
		return &Instance{NumColors: 1}
	}
	c := 1 + int(data[0])%24
	var ivs []Interval
	for i := 1; i+1 < len(data) && len(ivs) < 40; i += 2 {
		s := int(data[i]) % c
		ivs = append(ivs, Interval{Start: s, End: s + int(data[i+1])%(c-s)})
	}
	return &Instance{NumColors: c, Intervals: ivs}
}

// FuzzLowerBound checks the probe bound against the paper on arbitrary
// small instances: it equals Algorithm 1's window sweep and the sparse
// endpoint form (and the exhaustive optimum when that is cheap), its
// witness window holds more than lb-1 intervals per color, and
// Algorithm 2 attains it legally, with the coloring Solve returns,
// while one less capacity fails. Seeds live in
// testdata/fuzz/FuzzLowerBound.
func FuzzLowerBound(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		inst := fuzzInstance(data)
		lb, w, err := inst.bound(nil)
		if err != nil {
			t.Fatal(err)
		}
		if ref, sparse := inst.lowerBoundRef(), inst.LowerBoundSparse(); lb != ref || lb != sparse {
			t.Fatalf("bound %d, window sweep %d, sparse %d on %v over %d colors", lb, ref, sparse, inst.Intervals, inst.NumColors)
		}
		if len(inst.Intervals) <= 8 {
			if bf := inst.BruteForce(); lb != bf {
				t.Fatalf("bound %d, exhaustive optimum %d on %v", lb, bf, inst.Intervals)
			}
		}
		if lb == 0 {
			return
		}
		count := 0
		for _, iv := range inst.Intervals {
			if w.lo <= iv.Start && iv.End <= w.hi {
				count++
			}
		}
		if w.lo < 0 || w.hi >= inst.NumColors || w.lo > w.hi || count != w.count || count <= (lb-1)*(w.hi-w.lo+1) {
			t.Fatalf("witness %+v (recounted %d) does not prove bound %d", w, count, lb)
		}
		colors, err := inst.Assign(lb)
		if err != nil {
			t.Fatal(err)
		}
		if bn, err := inst.CheckColoring(colors); err != nil || bn != lb {
			t.Fatalf("Assign(%d) gave bottleneck %d (%v)", lb, bn, err)
		}
		if sol, err := inst.Solve(); err != nil || !slices.Equal(sol.Colors, colors) {
			t.Fatalf("Solve gave %v (%v), Assign(%d) %v", sol, err, lb, colors)
		}
		if _, err := inst.Assign(lb - 1); err == nil {
			t.Fatalf("Assign(%d) succeeded below the bound", lb-1)
		}
	})
}
