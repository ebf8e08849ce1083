package pipeline

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestTieRuleMovesOnlyFillDerivedFields compares the windowed b06
// report as it was recorded when Algorithm 2 broke ties between equal
// deadlines by a binary heap's sift order (testdata/retired) with the
// current golden, recorded under the first-admitted-first-placed rule.
// The rule may change which row toggles in which cycle, so the fields
// computed from the filled cubes' exact toggles may move; no peak and
// no bound may, and nothing else in the report either.
func TestTieRuleMovesOnlyFillDerivedFields(t *testing.T) {
	load := func(path string) any {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	old := load(filepath.Join("testdata", "retired", "b06_windowed.heap.json"))
	cur := load(filepath.Join("testdata", "pipeline", "b06_windowed.json"))
	var moved []string
	var walk func(path string, a, b any)
	walk = func(path string, a, b any) {
		am, aok := a.(map[string]any)
		bm, bok := b.(map[string]any)
		if !aok || !bok {
			if !reflect.DeepEqual(a, b) {
				moved = append(moved, path)
			}
			return
		}
		for k := range am {
			if _, ok := bm[k]; !ok {
				moved = append(moved, path+"."+k)
			}
		}
		for k, bv := range bm {
			walk(path+"."+k, am[k], bv)
		}
	}
	walk("", old, cur)
	sort.Strings(moved)
	fillDerived := map[string]bool{
		".power.shift_total":           true,
		".power.shift_avg":             true,
		".power.capture_avg_uw":        true,
		".power.ir_drop.mean_ua":       true,
		".power.ir_drop.hotspot_ratio": true,
	}
	if len(moved) == 0 {
		t.Fatal("the re-recorded golden equals the retired one: drop the retired copy")
	}
	for _, p := range moved {
		if !fillDerived[p] || strings.Contains(p, "peak") || strings.Contains(p, "bound") {
			t.Errorf("%s moved; only fields derived from the filled cubes' toggles may", p)
		}
	}
}
