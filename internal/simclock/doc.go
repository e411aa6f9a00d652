// Package simclock provides a deterministic simulated time source.
//
// Every component of the simulated spacecraft computer (CPU, power model,
// fault injectors, detectors) observes time exclusively through a Clock,
// which only advances when the simulation steps it. This keeps multi-hour
// experiments (the paper's 960-hour detector campaign) reproducible and
// fast: simulated hours take milliseconds of wall time.
//
// Clock is the time source: Now returns the simulated offset since run
// start as a time.Duration, and Advance moves it forward. It is a plain
// duration with no locks or timers, since the machine reads and advances
// it on every simulated step; each clock belongs to one goroutine.
//
// Invariants: time never moves backwards and never advances on its own;
// two runs that perform the same Advance sequence observe identical
// timestamps, which is what makes telemetry snapshots and experiment
// results byte-reproducible; no component of this repository reads the
// wall clock inside a simulation.
package simclock
