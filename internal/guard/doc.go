// Package guard supervises Radshield's own dependencies: the current
// sensor that ILD trusts and the executor cores that EMR trusts.
//
// The paper's protection layers assume their own inputs are sound — the
// current sensor reports real amps, the redundant executors make
// progress. On orbit neither assumption holds: telemetry ADCs latch up,
// sensor wiring opens, and an irradiated core can hang in a livelock
// instead of computing wrong bytes. This package makes those failure
// modes survivable instead of silent.
//
// Two supervisors:
//
//   - Supervisor watches the current-sensor stream through a
//     SensorHealth monitor and drives ILD down an explicit degradation
//     ladder — full linear-model detection → static current threshold →
//     hardware supply trip only — demoting when the sensor is provably
//     unusable (NaN, out of range, stuck, stale) or when the active
//     detector refires implausibly fast after power cycles (the
//     signature of a bias/offset fault the per-sample checks cannot
//     see). While the board is blind it issues precautionary power
//     cycles on a period shorter than the detection-latency requirement,
//     so a latchup struck during a sensor outage is still cleared before
//     thermal damage. When the sensor recovers, the ladder re-promotes.
//
//   - Watchdog implements emr.Watcher: it bounds every executor visit
//     with a virtual deadline, kills hung replicas, counts per-executor
//     strikes, and degrades the redundancy plan TMR → DMR + checksum
//     arbiter → serial 3-MR as cores go persistently bad. Retry pacing
//     is deterministic (shifted backoff, bounded attempts).
//
// Protection is the one place a flight loop acts on a latchup: it feeds
// each sample to the bare ILD detector or to the Supervisor, power
// cycles the board when they call for it (a bare cycle is
// software-commanded, so a hung kernel blocks it; the Supervisor's
// external switch does not), and restarts the detector after any
// cycle, including one the machine commanded itself. It holds one
// *ild.Detector for the board: an adaptive posture retunes it in place
// (ild.Detector.SetThreshold), and a flight log is a Recorder attached
// to it. The campaigns, cmd/ildmon and examples/leomission all fly it,
// and only narrate the Decision it returns.
//
// Every decision is deterministic: no wall clock, no unseeded
// randomness, state advanced only by the telemetry/visits fed in. Mode
// changes surface as guard_mode / guard_redundancy_mode gauges and
// structured events (see TELEMETRY.md).
package guard
