// Package fault models the space radiation environment and provides the
// fault injectors the ground evaluation uses (the software analogue of
// the paper's potentiometer for SELs and GDB/QEMU tool for SEUs).
//
// Two error classes matter to operators (paper §2):
//
//   - SEU: a transient single-bit flip in memory, cache, or pipeline
//     state. MBUs (multi-bit upsets) flip two bits at once.
//   - SEL: a latchup — a persistent, localized short-circuit that adds a
//     small current draw and thermally destroys the chip in ~5 minutes
//     unless power cycled. Modern process nodes produce micro-SELs as
//     small as +0.07 A.
//
// Key types: Environment holds per-orbit SEU/SEL rates (LEO and deep
// space presets) and draws Poisson event schedules; BitFlip places one
// flip at an offset into a region (RandomFlip draws one); Scheme
// enumerates the protection schemes the evaluation compares (none,
// unprotected parallel, serial 3-MR, EMR, checksum guard); Outcome and
// Tally classify injection results into the paper's Table 7 columns
// (corrected / no effect / detected error / SDC); DieFractions and
// ProtectedAreaFraction reproduce the Table 4 die-area accounting.
//
// Invariants: event schedules are deterministic given a seed and
// duration; an Outcome is assigned by comparing against a golden run,
// never by inspecting the injector's own bookkeeping (the classification
// cannot cheat); rates are per-device-per-time, so scaling mission
// length scales event counts linearly in expectation.
package fault
