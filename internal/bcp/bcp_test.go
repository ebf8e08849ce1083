package bcp

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func mustInstance(t *testing.T, numColors int, ivs ...Interval) *Instance {
	t.Helper()
	inst, err := NewInstance(numColors, ivs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(-1, nil); err == nil {
		t.Error("negative color count accepted")
	}
	if _, err := NewInstance(3, []Interval{{Start: 2, End: 1}}); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, err := NewInstance(3, []Interval{{Start: 0, End: 3}}); err == nil {
		t.Error("out-of-range interval accepted")
	}
	if _, err := NewInstance(3, []Interval{{Start: -1, End: 1}}); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := NewInstance(0, nil); err != nil {
		t.Error("empty instance rejected")
	}
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{Start: 2, End: 4}
	for c, want := range map[int]bool{1: false, 2: true, 3: true, 4: true, 5: false} {
		if iv.Contains(c) != want {
			t.Errorf("Contains(%d) = %v", c, !want)
		}
	}
}

func TestLowerBoundEmpty(t *testing.T) {
	if lb := mustInstance(t, 5).LowerBound(); lb != 0 {
		t.Fatalf("LB of empty = %d", lb)
	}
}

func TestLowerBoundSingletons(t *testing.T) {
	// Three unit intervals on the same color: LB must be 3.
	inst := mustInstance(t, 4, Interval{1, 1}, Interval{1, 1}, Interval{1, 1})
	if lb := inst.LowerBound(); lb != 3 {
		t.Fatalf("LB = %d, want 3", lb)
	}
}

func TestLowerBoundSpread(t *testing.T) {
	// Three intervals over 3 colors, all [0,2]: perfectly spreadable.
	inst := mustInstance(t, 3, Interval{0, 2}, Interval{0, 2}, Interval{0, 2})
	if lb := inst.LowerBound(); lb != 1 {
		t.Fatalf("LB = %d, want 1", lb)
	}
}

func TestLowerBoundCeiling(t *testing.T) {
	// Four intervals confined to a window of 3 colors: ceil(4/3) = 2.
	inst := mustInstance(t, 5,
		Interval{1, 3}, Interval{1, 3}, Interval{1, 3}, Interval{1, 3})
	if lb := inst.LowerBound(); lb != 2 {
		t.Fatalf("LB = %d, want 2", lb)
	}
}

func TestLowerBoundMixedWindows(t *testing.T) {
	// The binding window is [2,3] with 3 intervals: ceil(3/2) = 2,
	// even though the global density is lower.
	inst := mustInstance(t, 6,
		Interval{0, 5},
		Interval{2, 3}, Interval{2, 3}, Interval{2, 2},
	)
	if lb := inst.LowerBound(); lb != 2 {
		t.Fatalf("LB = %d, want 2", lb)
	}
}

func TestAssignRejectsBadCapacity(t *testing.T) {
	inst := mustInstance(t, 3, Interval{0, 1})
	if _, err := inst.Assign(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	// Capacity 1 with two forced same-color intervals must fail loudly.
	inst2 := mustInstance(t, 2, Interval{0, 0}, Interval{0, 0})
	if _, err := inst2.Assign(1); err == nil {
		t.Error("infeasible capacity accepted")
	}
}

func TestAssignEmptyInstance(t *testing.T) {
	inst := mustInstance(t, 0)
	colors, err := inst.Assign(1)
	if err != nil || colors != nil {
		t.Fatalf("empty assign: %v %v", colors, err)
	}
}

func TestSolveKnownOptimum(t *testing.T) {
	// Fig.-1-like scenario: overlapping stretches where greedy-by-middle
	// would collide but spreading achieves 1 per color.
	inst := mustInstance(t, 3,
		Interval{0, 2}, Interval{0, 1}, Interval{1, 2})
	sol, err := inst.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Bottleneck != 1 || sol.LowerBound != 1 {
		t.Fatalf("bottleneck=%d lb=%d, want 1/1", sol.Bottleneck, sol.LowerBound)
	}
}

func TestSolveLegalColors(t *testing.T) {
	inst := mustInstance(t, 6,
		Interval{0, 0}, Interval{0, 5}, Interval{3, 4}, Interval{2, 2}, Interval{1, 4})
	sol, err := inst.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range sol.Colors {
		if !inst.Intervals[i].Contains(c) {
			t.Errorf("interval %d got color %d outside [%d,%d]",
				i, c, inst.Intervals[i].Start, inst.Intervals[i].End)
		}
	}
}

func TestCheckColoring(t *testing.T) {
	inst := mustInstance(t, 3, Interval{0, 1}, Interval{1, 2})
	if _, err := inst.CheckColoring([]int{0}); err == nil {
		t.Error("short coloring accepted")
	}
	if _, err := inst.CheckColoring([]int{2, 1}); err == nil {
		t.Error("out-of-interval color accepted")
	}
	bn, err := inst.CheckColoring([]int{1, 1})
	if err != nil || bn != 2 {
		t.Fatalf("bottleneck=%d err=%v", bn, err)
	}
}

func TestHistogram(t *testing.T) {
	inst := mustInstance(t, 4, Interval{0, 3}, Interval{0, 3}, Interval{2, 2})
	h := inst.Histogram([]int{0, 2, 2})
	want := []int{1, 0, 2, 0}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
}

func TestBruteForceSmall(t *testing.T) {
	// {0,0} pins color 0, {1,1} pins color 1; {0,1} must double up on
	// one of them, so the optimum is 2.
	inst := mustInstance(t, 2, Interval{0, 0}, Interval{0, 1}, Interval{1, 1})
	if got := inst.BruteForce(); got != 2 {
		t.Fatalf("brute force = %d, want 2", got)
	}
	// Widening the middle interval's range to a third color drops the
	// optimum back to 1.
	inst2 := mustInstance(t, 3, Interval{0, 0}, Interval{0, 2}, Interval{1, 1})
	if got := inst2.BruteForce(); got != 1 {
		t.Fatalf("brute force = %d, want 1", got)
	}
}

func randomInstance(r *rand.Rand, maxColors, maxIntervals int) *Instance {
	c := 1 + r.Intn(maxColors)
	k := r.Intn(maxIntervals + 1)
	ivs := make([]Interval, k)
	for i := range ivs {
		s := r.Intn(c)
		e := s + r.Intn(c-s)
		ivs[i] = Interval{Start: s, End: e}
	}
	return &Instance{NumColors: c, Intervals: ivs}
}

// TestPropertyGreedyMatchesBruteForce is the optimality theorem check:
// on random small instances the LB/greedy pair must equal the exhaustive
// optimum exactly.
func TestPropertyGreedyMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r, 6, 9)
		sol, err := inst.Solve()
		if err != nil {
			return false
		}
		return sol.Bottleneck == inst.BruteForce()
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertySolveAlwaysMeetsLowerBound checks bottleneck == LB on
// larger random instances where brute force is infeasible.
func TestPropertySolveAlwaysMeetsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r, 60, 300)
		sol, err := inst.Solve()
		if err != nil {
			return false
		}
		if sol.Bottleneck != sol.LowerBound {
			return false
		}
		// And the coloring must be legal.
		_, err = inst.CheckColoring(sol.Colors)
		return err == nil
	}
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyLowerBoundIsABound: no legal coloring (here: a random one)
// can beat the lower bound.
func TestPropertyLowerBoundIsABound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r, 8, 10)
		lb := inst.LowerBound()
		// Random legal coloring.
		colors := make([]int, len(inst.Intervals))
		for i, iv := range inst.Intervals {
			colors[i] = iv.Start + r.Intn(iv.End-iv.Start+1)
		}
		bn, err := inst.CheckColoring(colors)
		return err == nil && bn >= lb
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestAssignAllocs pins Algorithm 2's allocations: the start buckets,
// FIFO lists and bitmap come from the pooled scratch, so the returned
// colors are the only allocation, however many intervals and colors
// the instance has.
func TestAssignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	inst := randomInstance(rand.New(rand.NewSource(7)), 500, 20000)
	lb := inst.LowerBound()
	avg := testing.AllocsPerRun(20, func() {
		if _, err := inst.Assign(lb); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Fatalf("Assign allocates %.1f times per call, want 1", avg)
	}
}

// TestAssignTieRule pins Algorithm 2's tie rule on instances where it
// decides the colors: among pending intervals with equal deadlines the
// one admitted first is placed first, so an earlier Start beats a
// lower index, and between equal Starts the lower index goes first.
// Solve must give the same coloring as Assign at the bound.
func TestAssignTieRule(t *testing.T) {
	cases := []struct {
		name      string
		numColors int
		ivs       []Interval
		capacity  int
		want      []int
	}{
		{
			// At color 1, intervals 0 (admitted at 1) and 1 (admitted
			// at 0) are both due at 2; interval 1 waited longer.
			name: "earlier start first", numColors: 3,
			ivs:      []Interval{{1, 2}, {0, 2}, {0, 0}},
			capacity: 1, want: []int{2, 1, 0},
		},
		{
			name: "lower index first on equal starts", numColors: 3,
			ivs:      []Interval{{0, 2}, {0, 2}, {0, 2}},
			capacity: 1, want: []int{0, 1, 2},
		},
		{
			// Interval 2 starts later than 0 and 3 but shares their
			// deadline; it goes last among them whatever its index.
			name: "admission order across starts", numColors: 4,
			ivs:      []Interval{{0, 3}, {1, 1}, {2, 3}, {1, 3}},
			capacity: 1, want: []int{0, 1, 3, 2},
		},
		{
			// Capacity 2: at each color the deadline-1 interval goes
			// first and one deadline-2 interval takes the second slot.
			// At color 1 that is interval 3, admitted at 0, not the
			// lower-indexed interval 0, admitted at 1.
			name: "ties at capacity two", numColors: 3,
			ivs:      []Interval{{1, 2}, {0, 2}, {0, 1}, {0, 2}, {1, 1}},
			capacity: 2, want: []int{2, 0, 0, 1, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := mustInstance(t, tc.numColors, tc.ivs...)
			got, err := inst.Assign(tc.capacity)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("Assign(%d) = %v, want %v", tc.capacity, got, tc.want)
			}
			if lb := inst.LowerBound(); lb != tc.capacity {
				t.Fatalf("bound %d, the case assumes %d", lb, tc.capacity)
			}
			sol, err := inst.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sol.Colors, tc.want) {
				t.Fatalf("Solve colors %v, want %v", sol.Colors, tc.want)
			}
		})
	}
}

// TestAssignReportsMissedDeadline checks the error of a capacity below
// the bound: it names the first interval still pending at the end of
// its deadline color.
func TestAssignReportsMissedDeadline(t *testing.T) {
	inst := mustInstance(t, 3, Interval{0, 2}, Interval{1, 1}, Interval{1, 1})
	_, err := inst.Assign(1)
	if err == nil || !strings.Contains(err.Error(), "interval 2 = [1,1] missed its deadline") {
		t.Fatalf("Assign(1) error = %v", err)
	}
	// The failed run leaves the pooled scratch clean for the next one.
	if colors, err := inst.Assign(2); err != nil || !slices.Equal(colors, []int{0, 1, 1}) {
		t.Fatalf("Assign(2) after a failure = %v, %v", colors, err)
	}
}

// TestSolveStatsSplitsAssignTime checks the explain record of a solve
// whose first probe is its coloring run: the probe is counted, and the
// run's time lands in AssignNS rather than BoundNS.
func TestSolveStatsSplitsAssignTime(t *testing.T) {
	inst := randomInstance(rand.New(rand.NewSource(11)), 200, 4000)
	var st Stats
	sol, err := inst.SolveStats(&st)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Bottleneck != sol.LowerBound || st.Probes == 0 || st.AssignNS <= 0 || st.BoundNS < 0 {
		t.Fatalf("solution %d/%d, stats %+v", sol.Bottleneck, sol.LowerBound, st)
	}
}

func BenchmarkBCPLowerBound(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	inst := randomInstance(r, 500, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.LowerBound()
	}
}

func BenchmarkBCPAssign(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	inst := randomInstance(r, 500, 20000)
	lb := inst.LowerBound()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Assign(lb); err != nil {
			b.Fatal(err)
		}
	}
}
