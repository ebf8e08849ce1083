package cube

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refParse is the per-rune cube parser the byte-table Parse must
// match, in value and in error text.
func refParse(s string) (Cube, error) {
	var c Cube
	for _, r := range s {
		switch r {
		case '0':
			c = append(c, Zero)
		case '1':
			c = append(c, One)
		case 'x', 'X', '-':
			c = append(c, X)
		default:
			return nil, fmt.Errorf("cube: invalid trit character %q", r)
		}
	}
	return c, nil
}

// refRender renders one trit at a time through Trit.Rune.
func refRender(c Cube) string {
	var b strings.Builder
	for _, t := range c {
		b.WriteRune(t.Rune())
	}
	return b.String()
}

// FuzzParseCube checks the cube codec against its per-rune references:
// Parse equals refParse (value and error text), a parsed cube
// round-trips through String, and for arbitrary trit values — not only
// the three Parse produces — String equals refRender, XCount equals a
// per-trit count, and (*Set).Strings equals String cube by cube.
func FuzzParseCube(f *testing.F) {
	for _, seed := range []string{
		"", "0", "1", "X", "x", "-", "01XX0", "0x1-X", "XXXX11",
		strings.Repeat("01X", 43), // 129 trits: past two word edges
		"0é1", "01\xff", "\x00\x01\x02", "0 1", "01X\n", "2", "Z",
		"\xe2\x82", // truncated multi-byte rune
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := Parse(s)
		want, wantErr := refParse(s)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("Parse(%q) error %v, reference %v", s, err, wantErr)
		case err != nil:
			if err.Error() != wantErr.Error() {
				t.Fatalf("Parse(%q) error %q, reference %q", s, err, wantErr)
			}
			if got != nil {
				t.Fatalf("Parse(%q) returned a cube alongside its error", s)
			}
		default:
			if !got.Equal(want) {
				t.Fatalf("Parse(%q) = %v, reference %v", s, got, want)
			}
			again, err := Parse(got.String())
			if err != nil || !again.Equal(got) {
				t.Fatalf("Parse(%q.String()) = %v, %v; want %v", s, again, err, got)
			}
		}

		// Any byte as a trit value: the renderer must read every value
		// from X up as 'X'.
		raw := make(Cube, len(s))
		for i := 0; i < len(s); i++ {
			raw[i] = Trit(s[i])
		}
		if r := raw.String(); r != refRender(raw) {
			t.Fatalf("String of %v = %q, reference %q", raw, r, refRender(raw))
		}
		wantX := 0
		for _, tr := range raw {
			if tr == X {
				wantX++
			}
		}
		if got := raw.XCount(); got != wantX {
			t.Fatalf("XCount of %v = %d, reference %d", raw, got, wantX)
		}
		width := 1
		if len(s) > 0 {
			width += int(s[0]) % 17
		}
		set := NewSet(width)
		for len(raw) >= width {
			set.Append(raw[:width])
			raw = raw[width:]
		}
		strs := set.Strings()
		if len(strs) != set.Len() {
			t.Fatalf("Strings returned %d strings for %d cubes", len(strs), set.Len())
		}
		for i, c := range set.Cubes {
			if strs[i] != c.String() {
				t.Fatalf("Strings()[%d] = %q, String %q", i, strs[i], c.String())
			}
		}
	})
}

// TestToggleStatsMatchPerTritReference pins the 8-trit packing behind
// the toggle statistics against per-trit HammingDistance over every
// width up to 130: tails that are not a multiple of 8 and the 64- and
// 128-pin word edges included.
func TestToggleStatsMatchPerTritReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for width := 0; width <= 130; width++ {
		for _, n := range []int{0, 1, 2, 7} {
			set := NewSet(width)
			for j := 0; j < n; j++ {
				c := make(Cube, width)
				for i := range c {
					c[i] = Trit(r.Intn(3))
				}
				set.Append(c)
			}
			var wantPeak, wantTotal int
			var wantProfile []int
			for j := 1; j < n; j++ {
				d := set.Cubes[j-1].HammingDistance(set.Cubes[j])
				wantProfile = append(wantProfile, d)
				wantPeak = max(wantPeak, d)
				wantTotal += d
			}
			peak, total, profile := set.ToggleStats()
			if peak != wantPeak || total != wantTotal || fmt.Sprint(profile) != fmt.Sprint(wantProfile) {
				t.Fatalf("width %d n %d: ToggleStats = %d, %d, %v; reference %d, %d, %v",
					width, n, peak, total, profile, wantPeak, wantTotal, wantProfile)
			}
			if p := set.PeakToggles(); p != wantPeak {
				t.Fatalf("width %d n %d: PeakToggles %d, reference %d", width, n, p, wantPeak)
			}
			if tt := set.TotalToggles(); tt != wantTotal {
				t.Fatalf("width %d n %d: TotalToggles %d, reference %d", width, n, tt, wantTotal)
			}
		}
	}
}

// TestSetStringsAllocations pins the one-buffer renderer: the string
// headers and the shared buffer, whatever the set's size.
func TestSetStringsAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, shape := range [][2]int{{1, 1}, {3, 600}, {200, 1000}} {
		n, width := shape[0], shape[1]
		set := NewSet(width)
		for j := 0; j < n; j++ {
			c := make(Cube, width)
			for i := range c {
				c[i] = Trit(r.Intn(3))
			}
			set.Append(c)
		}
		if got := testing.AllocsPerRun(10, func() { set.Strings() }); got != 2 {
			t.Errorf("%d×%d set: Strings made %v allocations, want 2", n, width, got)
		}
	}
}
