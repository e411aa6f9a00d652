// Package adapt closes the protection loop: a deterministic controller
// reads live error-rate telemetry — ILD detections and refires, EMR
// vote disagreements, guard sensor verdicts, watchdog resets — over a
// sliding window of simulated time and moves a four-rung protection
// posture (relaxed → nominal → elevated → max) with hysteresis.
//
// Each rung maps, via PostureFor, onto knobs the existing layers
// already expose: the ILD threshold profile, the measurement-bubble
// cadence, the payload redundancy ladder (serial+checksum → DMR+
// checksum → TMR, the guard watchdog's vocabulary), the downlink
// housekeeping cadence and beacon policy. The controller itself never
// touches those layers — it is a pure decision function; callers apply
// the posture through the hooks in ild/emr/guard/downlink.
//
// Determinism is the contract: signals carry sim times, the window is a
// slice pruned in order (never a map), and every transition lands in a
// decision trace (Trace) the adaptive campaign replays byte-identically
// at any worker width. MISSIONS.md documents the ladder and the
// hysteresis rationale; TELEMETRY.md the adapt_* metric names.
package adapt
