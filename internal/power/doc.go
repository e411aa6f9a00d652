// Package power models the electrical side of the simulated spacecraft
// computer: the board's true current draw as a function of compute
// activity, and the INA3221-class sensor the flight power supply exposes
// (complete with measurement noise and microsecond transient spikes).
//
// Calibration follows the paper's measurements on a commodity ARM SoC:
// quiescent draw ≈ 1.55 A with σ ≈ 0.14 A raw (σ ≈ 0.02 A after the
// rolling-minimum filter), full-load draw up to ≈ 4.5 A, SELs adding as
// little as +0.07 A — two orders of magnitude below workload variation,
// which is why static thresholds fail (paper Figure 2).
//
// Key types: Params calibrates the board (idle draw, per-core dynamic,
// memory and disk draw, sensor noise, trip threshold, thermal drift),
// and its TrueCurrent maps a BoardState (per-core CoreState activity
// and IO rates) to the board model's amps; Sensor adds seeded
// measurement noise and transient spikes, and the rolling-minimum
// filter the paper uses to tame both. Sensor.Read takes one sample of a
// given true current: a raw reading and a filtered window, each one
// alfg.MinReading loop over the sensor's noise stream, both passed
// through the fault active at that instant (faults.go).
//
// Invariants: true current is a deterministic function of BoardState;
// sensor noise is deterministic given the seed, and draws exactly the
// values of the per-draw loop over math/rand it replaced
// (TestSensorMatchesReference); the rolling-minimum
// filter never reports below the true floor — it suppresses upward
// noise and transients, which is why a persistent +0.07 A latchup
// survives filtering while spikes do not. The supply's own over-current
// trip lives in package machine, which reads the healthy analog value
// every Reading carries (Reading.AnalogA).
package power
