package core

import (
	"testing"

	"repro/internal/cube"
)

// fuzzSet decodes arbitrary bytes into a small cube set: the first byte
// picks 1..12 pins, the second 1..16 vectors, and every following byte
// supplies four trits, two bits each (0 and 1 as themselves, 2 and 3
// as X). Trits past the end of the data are X. The third byte also
// picks a window size of 2..n for the windowed leg.
func fuzzSet(data []byte) (*cube.Set, int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	width, n := 1+at(0)%12, 1+at(1)%16
	window := 2 + at(2)%max(1, n-1)
	s := cube.NewSet(width)
	bits := data[min(len(data), 2):]
	for v := 0; v < n; v++ {
		c := make(cube.Cube, width)
		for i := range c {
			k := v*width + i
			c[i] = cube.X
			if k/4 < len(bits) {
				switch bits[k/4] >> (2 * (k % 4)) & 3 {
				case 0:
					c[i] = cube.Zero
				case 1:
					c[i] = cube.One
				}
			}
		}
		s.Append(c)
	}
	return s, window
}

// FuzzFill checks the paper's fill guarantees on arbitrary small sets,
// including the ones where Algorithm 2's tie rule decides the colors:
// the packed fill covers every care bit, its peak equals both
// Bottleneck and the BCP bound, it matches the per-trit reference path
// bit for bit, and a windowed fill also covers the care bits with a
// peak no lower than the monolithic one. Seeds live in
// testdata/fuzz/FuzzFill.
func FuzzFill(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, window := fuzzSet(data)
		got, res, err := FillWith(s, Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Covers(got) {
			t.Fatalf("fill of %v does not cover its care bits: %v", s.Strings(), got.Strings())
		}
		bn, err := Bottleneck(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Peak != res.LowerBound || res.Peak != bn || got.PeakToggles() != res.Peak {
			t.Fatalf("peak %d, bound %d, Bottleneck %d, recounted %d on %v",
				res.Peak, res.LowerBound, bn, got.PeakToggles(), s.Strings())
		}
		want, wantRes, err := fillReference(s)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("packed fill %v, per-trit reference %v on %v", got.Strings(), want.Strings(), s.Strings())
		}
		sameResult(t, res, wantRes)
		wgot, wres, err := FillWindowed(s, window)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Covers(wgot) {
			t.Fatalf("window %d fill of %v does not cover its care bits: %v", window, s.Strings(), wgot.Strings())
		}
		if wres.Peak < res.Peak || wgot.PeakToggles() != wres.Peak {
			t.Fatalf("window %d peak %d (recounted %d) below the monolithic %d on %v",
				window, wres.Peak, wgot.PeakToggles(), res.Peak, s.Strings())
		}
	})
}
