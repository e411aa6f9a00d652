// Package experiments contains one harness per table and figure of the
// paper's evaluation (§4), plus the ablation studies of the design
// choices called out in DESIGN.md. Each harness returns a plain result
// struct and can render itself as the text table / data series the paper
// reports; cmd/radbench and the repository-level benchmarks drive them.
//
// The SEL side (Table 2, Figures 2/5/10, threshold and quiescence
// ablations) is parameterized by SELConfig and runs detector campaigns
// on the machine simulation; the SEU side (Figures 11–14, Tables 6/7,
// scheduling and cache-ECC ablations) is parameterized by SEUConfig and
// Table7Config and runs workloads under the EMR runtime. Table and
// Figure are the plain-text rendering helpers.
//
// Both config types carry an optional Telemetry registry; when set, the
// campaign's machines, detectors, and EMR runtimes record the metrics
// and events documented in TELEMETRY.md. Ground-twin training
// deliberately detaches telemetry so flight metrics are not polluted by
// training traffic.
//
// Campaign loops fan their trials across CPUs through internal/sched;
// the Workers field on each config bounds the width (0 = one worker per
// CPU). Trials are self-contained — own seeded RNG, machine, detector —
// and results are collected in trial order, so rendered output is
// byte-identical at any width (the TestParallelEquivalence tests
// enforce this).
//
// The flight campaigns (mission survival, guard, watchdog, OS fault,
// adaptive, downlink) take every onboard-loop decision they share —
// bubble length, flight trace, latchup ledger, payload contact, comms
// link, watchdog workload — from flight.go, and keep only their own
// per-sample order. They act on a latchup through guard.Protection, the
// same path cmd/ildmon and examples/leomission fly.
// TestPinnedFlightCampaigns holds their rendered tables fixed across
// commits (testdata/pinned_*.txt).
//
// Invariants: every harness is deterministic given its config (seeded
// RNGs, simulated clocks, virtual cost models); scaled-down defaults
// preserve the paper's qualitative shapes (who wins, by what factor)
// rather than absolute values; harnesses never share mutable state, so
// they may run in any order.
package experiments
