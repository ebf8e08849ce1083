package bcp

import (
	"math/rand"
	"slices"
	"testing"
)

// TestLowerBoundMatchesRef pins the probe bound (pooled scratch,
// galloping and bisecting probes) to Algorithm 1's window sweep over a
// spread of instance shapes: dense and sparse starts, unit intervals,
// full-range intervals, and empty instances.
func TestLowerBoundMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 400; trial++ {
		var inst *Instance
		switch trial % 4 {
		case 0: // small dense
			inst = randomInstance(r, 12, 24)
		case 1: // wide sparse: most starts empty
			inst = randomInstance(r, 300, 10)
		case 2: // many intervals, tight range: large lb, short horizon
			inst = randomInstance(r, 8, 120)
		default: // mixed
			inst = randomInstance(r, 60, 40)
		}
		got := inst.LowerBound()
		want := inst.lowerBoundRef()
		if got != want {
			t.Fatalf("trial %d (C=%d, k=%d): LowerBound = %d, window sweep = %d\nintervals: %v",
				trial, inst.NumColors, len(inst.Intervals), got, want, inst.Intervals)
		}
	}
}

// TestLowerBoundScratchResize alternates color-range sizes so the
// pooled scratch shrinks and regrows across calls; a stale offset or a
// non-zeroed count from a previous size shows up as a wrong bound.
func TestLowerBoundScratchResize(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	sizes := []struct{ c, k int }{{200, 50}, {5, 8}, {120, 30}, {3, 3}, {250, 12}}
	type cased struct {
		inst *Instance
		want int
	}
	var cases []cased
	for _, sz := range sizes {
		inst := randomInstance(r, sz.c, sz.k)
		cases = append(cases, cased{inst, inst.lowerBoundRef()})
	}
	for iter := 0; iter < 10; iter++ {
		for i, cs := range cases {
			if got := cs.inst.LowerBound(); got != cs.want {
				t.Fatalf("iter %d case %d: LowerBound = %d, want %d (scratch reuse corrupted)",
					iter, i, got, cs.want)
			}
		}
	}
}

// TestLowerBoundConcurrent runs bounds and solves in parallel over
// shared instances; under -race this checks the scratch pool hand-off,
// and a scratch shared by mistake shows up as a wrong coloring.
func TestLowerBoundConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	insts := make([]*Instance, 6)
	wants := make([]int, len(insts))
	colors := make([][]int, len(insts))
	for i := range insts {
		insts[i] = randomInstance(r, 80, 60)
		wants[i] = insts[i].lowerBoundRef()
		sol, err := insts[i].Solve()
		if err != nil {
			t.Fatal(err)
		}
		colors[i] = sol.Colors
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for iter := 0; iter < 20; iter++ {
				i := (g + iter) % len(insts)
				if got := insts[i].LowerBound(); got != wants[i] {
					t.Errorf("goroutine %d: instance %d bound %d, want %d", g, i, got, wants[i])
					return
				}
				if sol, err := insts[i].Solve(); err != nil || !slices.Equal(sol.Colors, colors[i]) {
					t.Errorf("goroutine %d: instance %d solved to %v (%v), want %v", g, i, sol, err, colors[i])
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
