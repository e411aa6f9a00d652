// Package alfg is a concrete copy of math/rand's default generator: the
// additive lagged Fibonacci generator (Mitchell and Reeds) behind
// rand.NewSource, with *rand.Rand's Float64 and ziggurat NormFloat64
// draws copied as the MinReading loop uses them.
//
// Its one consumer is the current sensor, which takes six readings' worth
// of draws per simulated telemetry sample, so its noise stream is on the
// flight campaigns' hottest path. The sensor's whole reading model runs
// in one loop here, MinReading: the least of k readings, each a normal
// draw scaled by the noise σ, a uniform spike test and, on a spike, a
// uniform spike height. The register's cursor stays in locals across the
// loop, the ziggurat's strip test runs inline and its rare rejection
// path (normTail) out of line.
//
// Invariants: New(seed) produces exactly the value stream of
// rand.New(rand.NewSource(seed)), and MinReading draws from it exactly
// what the per-draw loop over NormFloat64 and Float64 draws — the same
// values, in the same order, consuming the same number of register
// steps — so its readings are bit-identical to that loop's
// (TestSourceMatchesMathRand is the proof). A Source is not safe for
// concurrent use.
package alfg
