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
// cumulative counter set (instructions, bus cycles, branch misses, cache
// references and hits) whose per-sample deltas (ReadSince)
// machine.Telemetry surfaces and ILD's features consume. No feature
// reads a core-cycle count, so a core keeps none.
//
// Invariants: counters are cumulative and monotone within a simulation
// run — samples report deltas over the sampling interval; a core with
// IdleLoad counts nothing (the OS's background work is HousekeepingLoad,
// which the quiescent traces schedule); counter noise is deterministic
// given the seed.
package cpu
