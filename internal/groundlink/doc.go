// Package groundlink carries the downlink over real sockets. It is the
// one internal package that imports net or net/http:
//
//   - Feed (feed.go) is the flight side: a downlink.Transmitter whose
//     radio is a TCP connection to a ground station. ildmon, radbench
//     and examples/leomission dial one with their -downlink flag.
//   - Server (serve.go) is the ground side: it accepts many spacecraft
//     links over TCP, one goroutine pipeline per connected link into a
//     shared downlink.Station, so every connected link is read at once,
//     and serves the aggregated mission state on HTTP /state and the
//     station's metrics on /telemetry. cmd/groundstation is the thin
//     binary wrapper.
//   - SnapshotHandler serves a telemetry registry's JSON snapshot, for
//     the ground station's /telemetry and radbench's -telemetry-http.
//
// The codec, link model, ARQ, flight recorder and station stay in
// package downlink, and the registry in package telemetry, so every
// program that neither dials nor serves links no network stack: the
// benchmark, emrrun and the other examples are static binaries.
// `make nonet` keeps it that way. DOWNLINK.md documents the frame
// format and the TCP transport.
package groundlink
