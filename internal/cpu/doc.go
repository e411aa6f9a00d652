// Package cpu models the cores of a commodity SoC (the Raspberry Pi Zero
// 2 W class device of the paper's SEL testbed): per-core DVFS frequency,
// an activity level describing the running workload, and the hardware
// performance counters Linux exposes to userspace.
//
// ILD never sees the workload directly — only these counters and the
// current sensor — which is precisely the white-box-via-OS-metrics setting
// the paper exploits.
//
// Core holds one core's frequency and Load; Load describes the active
// workload as fractions (utilization, memory intensity); Counters is the
// cumulative counter set (instructions, cycles, cache references, bus
// accesses) whose per-sample deltas (ReadSince) machine.Telemetry
// surfaces and ILD's features consume.
//
// Invariants: counters are cumulative and monotone within a simulation
// run — samples report deltas over the sampling interval; a core with
// IdleLoad retires only the background OS tick (quiescence is low, not
// zero, activity); counter noise is deterministic given the seed.
package cpu
