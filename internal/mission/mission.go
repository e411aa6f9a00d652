package mission

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"radshield/internal/fault"
)

// PhaseKind names a mission segment with a characteristic radiation
// climate. The multipliers attached to each kind (see Phase and
// MISSIONS.md) are relative to the profile's base environment, so the
// same kinds compose over LEO or deep-space baselines.
type PhaseKind int

const (
	// PhaseLEO is quiet low-Earth-orbit cruise under geomagnetic
	// shielding — the baseline every other phase is scaled against.
	PhaseLEO PhaseKind = iota
	// PhaseSAA is a South-Atlantic-Anomaly crossing: the inner proton
	// belt dips into the orbit and flux jumps for minutes per pass.
	PhaseSAA
	// PhaseGEO is geostationary cruise outside most of the
	// magnetosphere's shielding.
	PhaseGEO
	// PhaseMarsTransit is interplanetary cruise: unshielded GCR flux.
	PhaseMarsTransit
	// PhaseJupiterFlyby is a pass through Jupiter's radiation belts,
	// the harshest trapped-particle environment in the solar system.
	PhaseJupiterFlyby
	// PhaseSolarStorm is a solar energetic-particle event window: flux
	// rises orders of magnitude for hours.
	PhaseSolarStorm

	numPhaseKinds = int(PhaseSolarStorm) + 1
)

// String returns the phase-kind name used in telemetry and downlink
// payloads.
func (k PhaseKind) String() string {
	switch k {
	case PhaseLEO:
		return "leo_cruise"
	case PhaseSAA:
		return "saa_crossing"
	case PhaseGEO:
		return "geo_cruise"
	case PhaseMarsTransit:
		return "mars_transit"
	case PhaseJupiterFlyby:
		return "jupiter_flyby"
	case PhaseSolarStorm:
		return "solar_storm"
	default:
		return "unknown"
	}
}

// Phase is one mission segment: a duration and the flux multipliers it
// applies over the profile's base environment.
type Phase struct {
	Kind     PhaseKind
	Duration time.Duration
	// SEU, MBU and SEL scale the base environment's SEUPerDay, MBUFrac
	// and SELPerYear for the phase's span.
	SEU float64
	MBU float64
	SEL float64
}

// Quiet reports whether the phase is at or below the baseline climate —
// the spans where an adaptive controller should be earning its keep by
// relaxing protection.
func (p Phase) Quiet() bool { return p.SEU <= 1 && p.SEL <= 1 }

// NewPhase returns a phase of the given kind and duration carrying the
// kind's catalog multipliers (MISSIONS.md). The values trace to the
// spread the paper's sources report: SAA passes raise upset rates by
// one to two orders of magnitude over quiet LEO, solar events by two
// to three, and Jupiter's belts sit near the top of the scale.
func NewPhase(k PhaseKind, dur time.Duration) Phase {
	p := Phase{Kind: k, Duration: dur, SEU: 1, MBU: 1, SEL: 1}
	switch k {
	case PhaseSAA:
		p.SEU, p.MBU, p.SEL = 30, 1.5, 20
	case PhaseGEO:
		p.SEU, p.MBU, p.SEL = 3, 1, 2.5
	case PhaseMarsTransit:
		p.SEU, p.MBU, p.SEL = 4, 1.25, 3
	case PhaseJupiterFlyby:
		p.SEU, p.MBU, p.SEL = 40, 2, 25
	case PhaseSolarStorm:
		p.SEU, p.MBU, p.SEL = 100, 2.5, 60
	}
	return p
}

// Profile is a deterministic mission-phase schedule over a base
// radiation environment. Phases are contiguous, starting at t=0.
type Profile struct {
	Name  string
	Base  fault.Environment
	Phase []Phase
}

// Validate rejects profiles the generator cannot schedule.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("mission: profile needs a name")
	}
	if len(p.Phase) == 0 {
		return fmt.Errorf("mission: profile %q has no phases", p.Name)
	}
	// A rate that is NaN or infinite, in the base environment or
	// scaled by a phase, makes the arrival draw never reach the end of
	// the phase.
	if !finiteNonNegative(p.Base.SEUPerDay) || !finiteNonNegative(p.Base.SELPerYear) {
		return fmt.Errorf("mission: profile %q has base rates of %v SEUs a day and %v SELs a year, want finite and at least 0",
			p.Name, p.Base.SEUPerDay, p.Base.SELPerYear)
	}
	for i, ph := range p.Phase {
		if ph.Kind < 0 || int(ph.Kind) >= numPhaseKinds {
			return fmt.Errorf("mission: profile %q phase %d has unknown kind %d", p.Name, i, int(ph.Kind))
		}
		if ph.Duration <= 0 {
			return fmt.Errorf("mission: profile %q phase %d (%v) needs a positive duration", p.Name, i, ph.Kind)
		}
		if !finiteNonNegative(ph.SEU) || !finiteNonNegative(ph.MBU) || !finiteNonNegative(ph.SEL) {
			return fmt.Errorf("mission: profile %q phase %d (%v) has a multiplier that is not finite and at least 0", p.Name, i, ph.Kind)
		}
	}
	// Schedule draws every event before the flight starts, so a
	// finite but huge rate would ask for more than memory holds.
	day := float64(24 * time.Hour)
	var expected float64
	for _, ph := range p.Phase {
		d := float64(ph.Duration)
		expected += p.Base.SEUPerDay*ph.SEU*d/day + p.Base.SELPerYear*ph.SEL*d/(365.25*day)
	}
	if !(expected <= maxExpectedEvents) {
		return fmt.Errorf("mission: profile %q expects %.3g radiation events, want at most %d", p.Name, expected, maxExpectedEvents)
	}
	return nil
}

// maxExpectedEvents bounds the radiation events a valid profile
// expects to schedule. Every campaign and program stays far below it:
// examples/leomission's default boost schedules about 80, the adaptive
// campaign's catalog at a boost of 60,000 a few thousand.
const maxExpectedEvents = 1 << 20

// finiteNonNegative reports whether x is a finite value at least 0.
func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Total returns the mission length: the sum of phase durations.
func (p Profile) Total() time.Duration {
	var t time.Duration
	for _, ph := range p.Phase {
		t += ph.Duration
	}
	return t
}

// PhaseAt returns the phase covering mission time t and its index.
// Phases are half-open [start, start+Duration); t at or past the end
// of the mission reports the final phase.
func (p Profile) PhaseAt(t time.Duration) (Phase, int) {
	var start time.Duration
	for i, ph := range p.Phase {
		start += ph.Duration
		if t < start {
			return ph, i
		}
	}
	return p.Phase[len(p.Phase)-1], len(p.Phase) - 1
}

// Schedule turns the profile into a seeded radiation event stream: the
// profile's generator. Each phase draws Poisson arrivals, in phase
// order from rng, over the base environment scaled by its multipliers
// (the MBU fraction, a probability, clamped to 1), offset by the
// phase's start. Phases are half-open and contiguous, so every event
// lands in exactly one. Deterministic per rng seed; the events are
// sorted by time.
func (p Profile) Schedule(rng *rand.Rand) ([]fault.Event, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var events []fault.Event
	var start time.Duration
	for _, ph := range p.Phase {
		env := p.Base
		env.SEUPerDay *= ph.SEU
		env.SELPerYear *= ph.SEL
		env.MBUFrac = min(env.MBUFrac*ph.MBU, 1)
		for _, ev := range env.Schedule(rng, ph.Duration) {
			ev.T += start
			events = append(events, ev)
		}
		start += ph.Duration
	}
	sort.Slice(events, func(i, j int) bool { return events[i].T < events[j].T })
	return events, nil
}

// Boosted returns a copy of the profile with the base environment's
// event rates multiplied: SEL rates by rateBoost, SEU rates by a tenth
// of it (they are already frequent). It is the one boost rule, by which
// the mission and adaptive campaigns and examples/leomission compress
// mission time so short simulated flights see meaningful event counts;
// Validate rejects a boost that is negative or not finite, or one that
// asks for more events than a schedule may hold.
func (p Profile) Boosted(rateBoost float64) Profile {
	p.Base.SELPerYear *= rateBoost
	p.Base.SEUPerDay *= rateBoost / 10
	return p
}

// Preset profiles: the catalog MISSIONS.md documents. Durations are
// campaign-scale (hours, not months) — the sweeps compress real mission
// time the same way the Monte-Carlo missions do.

// LEOWithSAA is a low-Earth orbit with two SAA crossings per simulated
// flight: quiet cruise, a crossing, recovery, a second crossing, then
// cruise home.
func LEOWithSAA() Profile {
	return Profile{
		Name: "leo-saa",
		Base: fault.LEO,
		Phase: []Phase{
			NewPhase(PhaseLEO, 30*time.Minute),
			NewPhase(PhaseSAA, 10*time.Minute),
			NewPhase(PhaseLEO, 25*time.Minute),
			NewPhase(PhaseSAA, 10*time.Minute),
			NewPhase(PhaseLEO, 45*time.Minute),
		},
	}
}

// GEOTransfer is a transfer from LEO up to geostationary orbit: the
// belts are crossed once (modelled as an SAA-grade span), then the
// mission settles into GEO cruise.
func GEOTransfer() Profile {
	return Profile{
		Name: "geo-transfer",
		Base: fault.LEO,
		Phase: []Phase{
			NewPhase(PhaseLEO, 20*time.Minute),
			NewPhase(PhaseSAA, 15*time.Minute),
			NewPhase(PhaseGEO, 85*time.Minute),
		},
	}
}

// MarsCruise is interplanetary transit over a deep-space baseline with
// a mid-cruise solar-storm window.
func MarsCruise() Profile {
	return Profile{
		Name: "mars-cruise",
		Base: fault.DeepSpace,
		Phase: []Phase{
			NewPhase(PhaseMarsTransit, 40*time.Minute),
			NewPhase(PhaseSolarStorm, 15*time.Minute),
			NewPhase(PhaseMarsTransit, 65*time.Minute),
		},
	}
}

// JupiterFlyby is an outer-planets trajectory: long quiet cruise, a
// belt passage, quiet cruise out.
func JupiterFlyby() Profile {
	return Profile{
		Name: "jupiter-flyby",
		Base: fault.DeepSpace,
		Phase: []Phase{
			NewPhase(PhaseMarsTransit, 45*time.Minute),
			NewPhase(PhaseJupiterFlyby, 12*time.Minute),
			NewPhase(PhaseMarsTransit, 63*time.Minute),
		},
	}
}

// SolarStormDrill is the controller's stress profile: quiet LEO cruise
// interrupted by one long storm window.
func SolarStormDrill() Profile {
	return Profile{
		Name: "solar-storm-drill",
		Base: fault.LEO,
		Phase: []Phase{
			NewPhase(PhaseLEO, 40*time.Minute),
			NewPhase(PhaseSolarStorm, 20*time.Minute),
			NewPhase(PhaseLEO, 60*time.Minute),
		},
	}
}

// Catalog returns the preset profiles, in sweep order.
func Catalog() []Profile {
	return []Profile{LEOWithSAA(), GEOTransfer(), MarsCruise(), JupiterFlyby(), SolarStormDrill()}
}
