// Package mission models flight profiles as typed radiation-climate
// phases over the campaign's simulated time.
//
// The paper's evaluation injects faults at fixed per-arm rates, but a
// real orbit's flux is time-varying: South-Atlantic-Anomaly crossings,
// belt passages and solar-storm windows swing SEU/SEL rates by orders
// of magnitude within one mission. A Profile strings typed Phases —
// each a duration plus flux multipliers over a base fault.Environment —
// into a deterministic schedule; Profile.Schedule turns it into a
// seeded fault.Event stream, one Poisson draw per phase over the scaled
// environment, and a Tracker
// walks the profile at sample cadence, emitting mission_phase telemetry
// at every boundary so downstream consumers (the adaptive controller in
// internal/adapt, the downlink housekeeping stream) can follow the
// climate.
//
// Everything is deterministic: phases are data, the generator consumes
// one seeded *rand.Rand sequentially, and the tracker runs on sim time
// only. MISSIONS.md documents the phase catalog and the preset
// profiles.
package mission
