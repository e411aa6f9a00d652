// Package telemetry is Radshield's observability layer: a
// dependency-free, concurrency-safe metrics registry plus a bounded
// structured event ring. Every quantity the paper's evaluation reports —
// ILD detection latency and false trips (Table 2), EMR vote outcomes and
// flush traffic (Tables 6/7, Figures 11–14), ECC correction counts — is
// surfaced here, so a flight build can downlink the same numbers the
// ground evaluation measures.
//
// # Key types
//
//   - Registry: a named namespace of metrics and one event Ring. A nil
//     *Registry is the "disabled" sink: lookups return nil handles whose
//     methods are no-ops, so instrumented hot paths pay one nil check
//     when telemetry is off.
//   - Counter, Gauge, Histogram: lock-free atomic instruments. Histogram
//     buckets are fixed at creation (LatencyBuckets provides the
//     standard latency layout) and updated with atomic adds, keeping
//     instrumentation under the 2% overhead budget on the EMR
//     benchmarks.
//   - Ring / Event: a bounded buffer of typed events (SEL onset/detect/
//     clear, EMR vote mismatches, checksum misses, bubble injections)
//     that overwrites oldest-first, like a flight recorder.
//
// # Invariants
//
//   - Snapshots are deterministic: metrics sort by name, events by
//     sequence number, and event timestamps are simulated time (the
//     board's clock, machine.Now), never wall clock — two runs of the
//     same seeded experiment serialize byte-for-byte identically.
//   - Counters are monotonic within a process; histograms never lose
//     writes (atomic CAS on the float sum).
//   - The registry never allocates on the observation path; allocation
//     happens only at metric creation and snapshot time.
//
// The package serves nothing itself: a snapshot reaches a reader as JSON
// (Registry.WriteJSON, Snapshot.WriteJSON), and the live HTTP endpoints
// are package groundlink's SnapshotHandler and radbench's expvar
// publication, so a program that links only the registry links no
// network stack.
//
// TELEMETRY.md at the repository root documents every metric and event
// name, its unit, and the paper table or figure it corresponds to.
package telemetry
