//go:build race

package bcp

// raceEnabled reports a -race build, in which sync.Pool drops pooled
// items at random, so allocation counts of pooled paths do not hold.
const raceEnabled = true
