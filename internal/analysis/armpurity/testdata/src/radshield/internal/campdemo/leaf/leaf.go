// Package leaf is the bottom of the armpurity fixture call chain: it
// holds the primitive impurities (and one provably-immutable table)
// that must surface two packages up, at the campaign entry points.
package leaf

import "time"

// gains is package-level but never written after its declaration:
// configuration, not state. Reading it is deterministic.
var gains = []float64{0.25, 0.5, 1.0, 2.0}

// runs is mutable package-level state.
var runs int

// Tick reads the wall clock — the canonical nondeterminism.
func Tick() int64 {
	return time.Now().UnixNano()
}

// Bump mutates package state.
func Bump() {
	runs++
}

// Gain reads the immutable table — deterministic.
func Gain(i int) float64 {
	return gains[i%len(gains)]
}
