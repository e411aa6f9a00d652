package mission

import (
	"time"

	"radshield/internal/telemetry"
)

// Tracker walks a profile on the campaign's simulated time and reports
// phase transitions. Feed it monotonically non-decreasing sim times (one call
// per telemetry sample is the intended cadence); it answers with the
// current phase and emits mission_phase telemetry on every boundary.
type Tracker struct {
	p   Profile
	idx int
	ins *Instruments
}

// Instruments bundles the mission layer's metric handles. A nil
// *Instruments disables instrumentation; TELEMETRY.md documents every
// name.
type Instruments struct {
	reg *telemetry.Registry

	// PhaseIdx mirrors the tracker's current phase index.
	PhaseIdx *telemetry.Gauge
	// Transitions counts phase boundaries crossed.
	Transitions *telemetry.Counter
}

// NewInstruments registers the mission metric set on reg. A nil
// registry yields nil (instrumentation disabled).
func NewInstruments(reg *telemetry.Registry) *Instruments {
	if reg == nil {
		return nil
	}
	return &Instruments{
		reg:         reg,
		PhaseIdx:    reg.Gauge("mission_phase_idx", "phase"),
		Transitions: reg.Counter("mission_phase_transitions_total", "transitions"),
	}
}

// phaseChange records one boundary crossing.
func (ins *Instruments) phaseChange(t time.Duration, idx int, from, to Phase) {
	if ins == nil {
		return
	}
	ins.PhaseIdx.Set(float64(idx))
	ins.Transitions.Inc()
	ins.reg.Emit(telemetry.Event{
		T:    t,
		Kind: telemetry.KindMissionPhase,
		Fields: map[string]any{
			"from":  from.Kind.String(),
			"to":    to.Kind.String(),
			"phase": idx,
			"seu_x": to.SEU,
			"sel_x": to.SEL,
		},
	})
}

// NewTracker returns a tracker positioned at the profile's first phase.
// The profile must already be validated.
func NewTracker(p Profile, ins *Instruments) *Tracker {
	if ins != nil {
		ins.PhaseIdx.Set(0)
	}
	return &Tracker{p: p, ins: ins}
}

// Observe advances the tracker to sim time t and returns the covering
// phase plus whether a boundary was crossed since the previous call.
// Crossing several boundaries in one step emits one event per phase
// skipped, keeping the telemetry log a complete transition history.
func (tr *Tracker) Observe(t time.Duration) (Phase, bool) {
	_, idx := tr.p.PhaseAt(t)
	changed := idx != tr.idx
	for idx > tr.idx {
		from := tr.p.Phase[tr.idx]
		tr.idx++
		tr.ins.phaseChange(t, tr.idx, from, tr.p.Phase[tr.idx])
	}
	return tr.p.Phase[tr.idx], changed
}

// Phase returns the tracker's current phase without advancing it.
func (tr *Tracker) Phase() Phase { return tr.p.Phase[tr.idx] }
