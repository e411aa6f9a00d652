// Package machine assembles the simulated spacecraft computer that the
// SEL experiments run on: CPU cores (package cpu), the current model and
// sensor (package power), disk IO rates, a DVFS governor, and a
// latchup/thermal state machine — the software analogue of the paper's
// Raspberry Pi Zero 2 W testbed with its INA3221 current monitor and the
// potentiometer used to emulate latchups.
//
// The machine plays activity traces (package trace) and emits Telemetry
// samples — exactly the (performance counters, measured current) pairs
// ILD consumes. Time is simulated: the board's clock (Now) moves only
// when Step advances it, never backwards and never on its own, so the
// paper's 960-hour campaign runs in seconds and two runs that step
// alike observe identical timestamps.
//
// Key types: Config sizes the board (cores, power model, sensor seed,
// sampling cadence and filter, optional hardware watchdog and telemetry
// registry); the DVFS range, supply and damage horizon are the fixed
// design of the paper's board. Machine is the assembled board —
// InjectSEL/ClearSEL emulate the potentiometer, PowerCycle is the
// recovery action, RunTrace steps a trace and invokes a callback per
// Telemetry sample; Telemetry carries per-core CoreTelemetry counters
// plus raw and filtered current, one sensor Read per sample.
//
// Sample ownership: RunTrace samples every PerCore into one buffer the
// machine owns and rewrites on the next sample, so the Telemetry its
// callback receives is valid only until the callback returns. No
// campaign keeps a sample: several detectors judging one stream all
// observe it inside the callback. A consumer that must keep samples
// copies PerCore.
//
// Invariants: a latched machine whose SEL is not cleared within
// SELDamageAfter of simulated time is permanently damaged (the paper's
// ~5-minute thermal horizon); PowerCycle always clears the
// latchup and costs the configured outage; sensor noise and transients
// are deterministic given Config.SensorSeed; samples arrive strictly
// every Config.SampleEvery of simulated time. When Config.Telemetry is
// set, the machine records the machine_* metrics and SEL lifecycle
// events of TELEMETRY.md.
package machine
