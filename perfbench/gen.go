package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/order"
)

// newRand returns the generator of one named input stream of a seed, so
// that adding a stream never shifts the inputs of another.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// randomCubes returns vectors cube strings of pins trits each; every trit
// is X with probability xFrac and otherwise 0 or 1 with equal odds.
func randomCubes(r *rand.Rand, vectors, pins int, xFrac float64) []string {
	out := make([]string, vectors)
	buf := make([]byte, pins)
	for i := range out {
		for j := range buf {
			switch {
			case r.Float64() < xFrac:
				buf[j] = 'X'
			case r.IntN(2) == 0:
				buf[j] = '0'
			default:
				buf[j] = '1'
			}
		}
		out[i] = string(buf)
	}
	return out
}

// fillCase is one cube set the benchmark sends for filling, with what any
// correct DP-fill answer must satisfy: the ordering the request's orderer
// yields and the BCP lower bound of the set in that order.
type fillCase struct {
	cubes   []string
	orderer string
	perm    []int
	bound   int
}

// newFillCase parses cubes and computes the expected ordering and bound
// with the library, before any timing starts. The service resolves an
// unset request seed to 1, and so does this.
func newFillCase(cubes []string, orderer string) (*fillCase, error) {
	set, err := cube.ParseSet(cubes...)
	if err != nil {
		return nil, fmt.Errorf("parsing generated cubes: %w", err)
	}
	ord, err := order.ByName(orderer, 1)
	if err != nil {
		return nil, err
	}
	perm, err := ord.Order(set)
	if err != nil {
		return nil, fmt.Errorf("%s ordering: %w", orderer, err)
	}
	bound, err := core.Bottleneck(set.Reorder(perm))
	if err != nil {
		return nil, fmt.Errorf("BCP bound: %w", err)
	}
	return &fillCase{cubes: cubes, orderer: orderer, perm: perm, bound: bound}, nil
}

// mustJSON encodes a request the benchmark built itself; failure is a bug.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}
