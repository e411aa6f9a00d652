// Package downlink is the deterministic spacecraft-to-ground comms
// subsystem: it moves Radshield's telemetry (ILD verdicts, guard
// degradation events, EMR vote outcomes, metric snapshots) over a
// lossy, bandwidth-starved, blackout-prone radio link and reassembles
// it on the ground.
//
// The layer stack, bottom up:
//
//   - Frame codec (frame.go): CCSDS-style fixed-header packetization.
//     Every frame carries a link (spacecraft) id, a virtual channel
//     (0 = highest priority: SEL/guard events; 3 = bulk), a per-channel
//     sequence number, a bounded payload, and a CRC-32 trailer. A
//     corrupted frame is discarded by CRC at the receiver and recovered
//     by ARQ, mirroring the SEU-hardened framing space telemetry buses
//     use.
//
//   - Flight recorder (ring.go): a bounded store-and-forward ring that
//     owns every frame until it is acknowledged. The ring models
//     NVRAM: it survives simulated power cycles, so an SEL event
//     captured mid-blackout is still on board when contact resumes.
//     When full it evicts oldest-first from the lowest-priority
//     channel, so priority-0 events are the last to go.
//
//   - Lossy link (link.go): a seeded, fully deterministic radio model —
//     token-bucket bandwidth cap, propagation latency, scheduled
//     drop/corrupt/reorder fault windows (ScheduleLinkFault) and
//     ground-contact blackouts (ScheduleBlackout). Both directions
//     share the fault schedule; ACKs can be lost too.
//
//   - Transmitter (transmitter.go): a priority-queue sender running
//     go-back-N ARQ per virtual channel with deterministic exponential
//     retransmission backoff. When the guard supervisor steps down
//     (see internal/guard) the transmitter degrades to a low-rate
//     beacon mode that keeps only channel 0 flowing.
//
//   - Station (station.go): the ground side — reassembles and
//     deduplicates frames from many spacecraft concurrently, generates
//     cumulative ACKs, and aggregates per-link mission state.
//
// The package opens no socket. ReadFrame pulls frames off any byte
// stream, and package groundlink carries the stack over real TCP: its
// Feed is a Transmitter whose radio is a connection to a ground
// station, and its Server runs a Station behind a TCP listener with an
// HTTP surface (cmd/groundstation is the thin binary wrapper). Programs
// that only simulate the link therefore link no network stack.
//
// The comms path reuses its buffers, so a steady-state round trip
// allocates nothing. Some byte slices are therefore lent, not given:
// DecodeFrame's Payload aliases its input, Link.RecvDown/RecvUp frames
// are valid until the next receive in that direction, and
// Recorder.Pending aliases the ring. DOWNLINK.md ("Buffers and
// ownership") lists every such contract.
//
// Everything on the flight side is driven by explicit simulated
// timestamps (simulated time) — no host-clock reads — so a campaign
// replays byte-for-byte at any scheduler width. TELEMETRY.md catalogs
// the downlink_* and groundstation_* metric families; DOWNLINK.md
// documents the frame format and the ARQ state machine.
package downlink
