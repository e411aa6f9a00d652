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
// Key types: Params calibrates the board (idle draw, per-core dynamic
// draw, DVFS exponent, sensor noise, trip threshold); Model maps a
// BoardState (per-core CoreState activity plus any latchup current) to
// true amps; Sensor wraps the model with seeded measurement noise,
// transient spikes, and the rolling-minimum filter the paper uses to
// tame both. A raw reading and a filtered window each run as one
// alfg.MinReading loop over the sensor's noise stream, and the active
// sensor fault (faults.go), if any, is applied to the result.
//
// Invariants: true current is a deterministic function of BoardState;
// sensor noise is deterministic given the seed, and draws exactly the
// values of the per-draw loop over math/rand it replaced
// (TestSensorMatchesReference); the rolling-minimum
// filter never reports below the true floor — it suppresses upward
// noise and transients, which is why a persistent +0.07 A latchup
// survives filtering while spikes do not. The supply's own over-current
// trip lives in package machine, which reads the sensor's healthy analog
// value (AnalogRaw).
package power
