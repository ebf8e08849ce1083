// Package cube implements three-valued (0, 1, X) test cubes and ordered
// cube sets, the data substrate every X-filling and ordering algorithm in
// this repository operates on.
//
// Terminology follows the paper: a test cube is a vector of trits applied
// to the circuit inputs (primary inputs plus scan flip-flop outputs); a
// cube set is an ordered sequence T1..Tn of cubes of equal width m. The
// m×n matrix A of §V-C is the transpose view: row i of A is pin i across
// all cubes.
package cube

import (
	"fmt"
	"math/bits"
	"strings"
)

// Trit is a three-valued logic symbol: 0, 1 or don't-care (X).
type Trit uint8

// The three trit values. Zero and One are the binary care values; X is a
// don't-care that an X-filling algorithm may replace with either.
const (
	Zero Trit = 0
	One  Trit = 1
	X    Trit = 2
)

// IsCare reports whether t is a specified (non-X) bit.
func (t Trit) IsCare() bool { return t != X }

// Rune returns the canonical character for t: '0', '1' or 'X'.
func (t Trit) Rune() rune {
	switch t {
	case Zero:
		return '0'
	case One:
		return '1'
	default:
		return 'X'
	}
}

// Neg returns the complement of a care trit; X stays X.
func (t Trit) Neg() Trit {
	switch t {
	case Zero:
		return One
	case One:
		return Zero
	default:
		return X
	}
}

// String implements fmt.Stringer.
func (t Trit) String() string { return string(t.Rune()) }

// ParseTrit converts a character into a Trit. Accepted: '0', '1',
// 'x'/'X', and '-' (a common don't-care spelling in pattern files).
func ParseTrit(r rune) (Trit, error) {
	switch r {
	case '0':
		return Zero, nil
	case '1':
		return One, nil
	case 'x', 'X', '-':
		return X, nil
	default:
		return X, fmt.Errorf("cube: invalid trit character %q", r)
	}
}

// Cube is a single test cube: a fixed-width vector of trits.
type Cube []Trit

// New returns an all-X cube of the given width.
func New(width int) Cube {
	c := make(Cube, width)
	for i := range c {
		c[i] = X
	}
	return c
}

// badByte marks the bytes of tritOfByte that are not a trit spelling.
const badByte Trit = 0xff

// tritOfByte maps every accepted trit character (the ASCII spellings
// ParseTrit takes) to its trit and every other byte to badByte.
var tritOfByte = func() (tab [256]Trit) {
	for i := range tab {
		tab[i] = badByte
	}
	tab['0'], tab['1'] = Zero, One
	tab['x'], tab['X'], tab['-'] = X, X, X
	return tab
}()

// Parse builds a cube from a string such as "01XX0". It accepts the same
// characters as ParseTrit and ignores nothing: the cube width equals the
// rune count.
func Parse(s string) (Cube, error) {
	// Every accepted character is one ASCII byte, so a valid cube is
	// one table lookup per byte; the first other byte (possibly the
	// start of a multi-byte rune) hands over to the rune loop, which
	// reports it exactly as ParseTrit spells the error.
	c := make(Cube, len(s))
	for i := 0; i < len(s); i++ {
		t := tritOfByte[s[i]]
		if t == badByte {
			return parseRunes(s)
		}
		c[i] = t
	}
	return c, nil
}

// parseRunes is Parse one rune at a time through ParseTrit.
func parseRunes(s string) (Cube, error) {
	c := make(Cube, 0, len(s))
	for _, r := range s {
		t, err := ParseTrit(r)
		if err != nil {
			return nil, err
		}
		c = append(c, t)
	}
	return c, nil
}

// MustParse is Parse that panics on error, for tests and fixed examples.
func MustParse(s string) Cube {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// String renders the cube with '0', '1' and 'X' characters.
func (c Cube) String() string {
	var b strings.Builder
	b.Grow(len(c))
	writeTrits(&b, c)
	return b.String()
}

// writeTrits renders c into b through the "01X" table, any trit value
// from X up reading 'X' as in Trit.Rune. Staging a chunk of characters
// on the stack and writing it in one call keeps the per-trit work to
// one lookup.
func writeTrits(b *strings.Builder, c Cube) {
	var chunk [512]byte
	for len(c) > 0 {
		k := min(len(c), len(chunk))
		for i, t := range c[:k] {
			chunk[i] = "01X"[min(t, X)]
		}
		b.Write(chunk[:k])
		c = c[k:]
	}
}

// Clone returns an independent copy of c.
func (c Cube) Clone() Cube {
	out := make(Cube, len(c))
	copy(out, c)
	return out
}

// Equal reports whether c and o have identical width and trits.
func (c Cube) Equal(o Cube) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// XCount returns the number of don't-care bits in c.
func (c Cube) XCount() int {
	// Eight trits per step: XOR with X turns each X byte to zero, and
	// the zero-byte test below marks exactly those bytes, without the
	// mispredicted branch a per-trit compare takes on random X patterns.
	const xBytes, low7 = uint64(X) * lowBits, 0x7f7f7f7f7f7f7f7f
	n, i := 0, 0
	for ; i+8 <= len(c); i += 8 {
		y := trits8(c, i) ^ xBytes
		n += bits.OnesCount64(^((y&low7 + low7) | y | low7))
	}
	for _, t := range c[i:] {
		if t == X {
			n++
		}
	}
	return n
}

// trits8 loads c[i:i+8] as one little-endian word, trit i in the low
// byte.
func trits8(c Cube, i int) uint64 {
	t := c[i : i+8 : i+8]
	return uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
		uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
}

// CareCount returns the number of specified bits in c.
func (c Cube) CareCount() int { return len(c) - c.XCount() }

// FullySpecified reports whether c contains no X bits.
func (c Cube) FullySpecified() bool { return c.XCount() == 0 }

// Compatible reports whether c and o agree on every jointly specified bit
// (i.e. the cubes could be merged). Cubes of unequal width are never
// compatible.
func (c Cube) Compatible(o Cube) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != X && o[i] != X && c[i] != o[i] {
			return false
		}
	}
	return true
}

// HammingDistance returns the number of positions where c and o are both
// specified and differ. This is the guaranteed toggle count between the
// two cubes: no X-filling can remove these toggles. It panics if widths
// differ.
func (c Cube) HammingDistance(o Cube) int {
	if len(c) != len(o) {
		panic("cube: HammingDistance on cubes of different width")
	}
	d := 0
	for i := range c {
		if c[i] != X && o[i] != X && c[i] != o[i] {
			d++
		}
	}
	return d
}

// PotentialDistance returns the number of positions where a toggle between
// c and o is possible: both specified and different, or at least one X.
// It is an upper bound on the post-fill Hamming distance.
func (c Cube) PotentialDistance(o Cube) int {
	if len(c) != len(o) {
		panic("cube: PotentialDistance on cubes of different width")
	}
	d := 0
	for i := range c {
		if c[i] == X || o[i] == X || c[i] != o[i] {
			d++
		}
	}
	return d
}

// ExpectedDistance returns the expected Hamming distance between c and o
// under uniformly random independent X-filling: both-specified differing
// positions count 1, positions with exactly one X count 1/2, and X-X
// positions count 1/2 (two independent coin flips differ with probability
// 1/2).
func (c Cube) ExpectedDistance(o Cube) float64 {
	if len(c) != len(o) {
		panic("cube: ExpectedDistance on cubes of different width")
	}
	var d float64
	for i := range c {
		switch {
		case c[i] != X && o[i] != X:
			if c[i] != o[i] {
				d++
			}
		default:
			d += 0.5
		}
	}
	return d
}
