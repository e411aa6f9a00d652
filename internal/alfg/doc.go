// Package alfg is a concrete copy of math/rand's default generator: the
// additive lagged Fibonacci generator (Mitchell and Reeds) behind
// rand.NewSource, with the Float64 and ziggurat NormFloat64 that
// *rand.Rand layers on top of it.
//
// The current sensor draws six values per simulated telemetry sample, so
// its noise stream is on the flight campaigns' hottest path. Through
// *rand.Rand every draw is an interface call into the Source; Source
// here is one concrete type whose methods the compiler can inline.
//
// Invariants: New(seed) produces exactly the value stream of
// rand.New(rand.NewSource(seed)) for every method it has — the same
// values, in the same order, consuming the same number of register
// steps — so a component can move from *rand.Rand to Source without
// changing a draw (TestSourceMatchesMathRand is the proof). A Source
// is not safe for concurrent use.
package alfg
