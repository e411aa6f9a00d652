// Package trace generates spacecraft compute-activity timelines: the
// bursty run-then-idle patterns real flight software exhibits (paper
// §3.1, "spacecraft compute load patterns"), plus the specific synthetic
// workloads the paper's figures use (the navigation workload of Figure 2,
// the frequency-stepped matrix-multiply sweep of Figure 5).
//
// A Trace is consumed by the machine simulation, which steps the CPU,
// power, and sensor models through it.
//
// A Trace is an ordered list of Segments; each Segment holds a duration,
// a Kind (workload class or quiescence), and the per-core load it
// applies. Generators (Quiescent, FlightSoftware, Navigation,
// MatMulSteps, mission profiles) build seeded random timelines;
// ild.InjectBubbles rewrites a trace to splice in measurement bubbles.
//
// Generators build each trace in place: nested stretches (a flight's
// quiescent and burst phases) append straight into the one trace, and
// every segment's Loads is a capacity-clipped window of a load slab the
// trace owns, so a multi-thousand-segment trace costs a few dozen
// allocations. Generated Loads are read-only: a copy of a segment
// shares its window (ild.InjectBubbles splits workload segments into
// copies, and both arms of a campaign pair fly one trace), so a write
// would show through every copy.
//
// Invariants: generation is deterministic given the rand source; a
// trace's Total equals the sum of its segment durations; segments are
// strictly sequential with no gaps or overlap, so the machine can play
// them back against simulated time without interpretation; every product
// that feeds a sum is converted explicitly (float64(x*y)), so no
// compiler fuses it into a multiply-add (DESIGN.md §9).
package trace
