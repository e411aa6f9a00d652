package machine

import (
	"math/rand"
	"testing"
	"time"

	"radshield/internal/power"
	"radshield/internal/telemetry"
	"radshield/internal/trace"
)

// newTripCounted builds a machine with a telemetry registry attached, so
// that a test reads the supply's trips from machine_supply_trips_total.
func newTripCounted(cfg Config) *Machine {
	cfg.Telemetry = telemetry.NewRegistry(64)
	return New(cfg)
}

func TestSupplyTripCatchesClassicSEL(t *testing.T) {
	// A classic, ampere-scale latchup pushes quiescent current past the
	// 4 A trip line; the supply's own circuit must clear it without any
	// software help.
	cfg := DefaultConfig()
	cfg.SensorSeed = 51
	m := newTripCounted(cfg)
	m.InjectSEL(5.0) // 1.55 + 5.0 = 6.55 A sustained: a classic destructive latchup
	rng := rand.New(rand.NewSource(52))
	m.RunTrace(trace.Quiescent(rng, 2*time.Second, time.Second), nil)
	if m.ins.supplyTrips.Value() == 0 {
		t.Fatal("supply never tripped on a +5 A latchup")
	}
	if m.SELActive() {
		t.Fatal("trip did not clear the latchup")
	}
	if m.Damaged() {
		t.Fatal("board damaged despite supply trip")
	}
}

func TestSupplyTripBlindToMicroSEL(t *testing.T) {
	// The paper's core motivation: a +0.07 A micro-latchup never reaches
	// the hardware trip line — only ILD can see it.
	cfg := DefaultConfig()
	cfg.SensorSeed = 53
	m := newTripCounted(cfg)
	m.InjectSEL(0.07)
	rng := rand.New(rand.NewSource(54))
	m.RunTrace(trace.Quiescent(rng, 10*time.Second, 2*time.Second), nil)
	if m.ins.supplyTrips.Value() != 0 {
		t.Fatalf("supply tripped %d times on a micro-SEL", m.ins.supplyTrips.Value())
	}
	if !m.SELActive() {
		t.Fatal("micro-SEL cleared by something other than ILD")
	}
}

func TestSupplyTripIgnoresTransientSpikes(t *testing.T) {
	// Microsecond spikes regularly exceed 4 A during quiescence but are
	// single samples; the sustain requirement must filter them.
	cfg := DefaultConfig()
	cfg.SensorSeed = 55
	cfg.Power.SpikeProb = 0.2 // very spiky board
	cfg.Power.SpikeMaxA = 3.0
	m := newTripCounted(cfg)
	rng := rand.New(rand.NewSource(56))
	m.RunTrace(trace.Quiescent(rng, 5*time.Second, time.Second), nil)
	if m.ins.supplyTrips.Value() != 0 {
		t.Fatalf("supply tripped %d times on transient spikes", m.ins.supplyTrips.Value())
	}
}

// TestSupplyTripSurvivesSensorDropout pins the analog-comparator model:
// the supply's over-current circuit reads the shunt directly, so a dead
// digital sensor cannot blind it and a classic ampere-scale latchup is
// still cleared.
func TestSupplyTripSurvivesSensorDropout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SensorSeed = 61
	m := newTripCounted(cfg)
	if err := m.Sensor().ScheduleFault(power.SensorFault{Kind: power.FaultDropout}); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectSEL(5.0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	m.RunTrace(trace.Quiescent(rng, 2*time.Second, time.Second), nil)
	if m.ins.supplyTrips.Value() == 0 {
		t.Fatal("supply never tripped: analog path blinded by digital sensor fault")
	}
	if m.SELActive() {
		t.Fatal("trip did not clear the latchup")
	}
}

// TestPowerCycleDuringActiveTripClearsBothStates is the regression test
// for the trip-integrator reset: a commanded power cycle arriving while
// the supply comparator is mid-accumulation must clear both the latchup
// and the partial trip count, so the fresh boot does not inherit a
// nearly-fired trip.
func TestPowerCycleDuringActiveTripClearsBothStates(t *testing.T) {
	m := newTripCounted(quietConfig())
	if err := m.InjectSEL(5.0); err != nil { // 6.55 A, above supplyTripA
		t.Fatal(err)
	}
	// Accumulate most of a trip (tripSustain is 50 samples at 1 ms),
	// then power cycle from software.
	for i := 0; i < 40; i++ {
		m.Step(time.Millisecond)
		m.sampleNow()
	}
	if m.tripConsecutive == 0 {
		t.Fatal("comparator never started accumulating")
	}
	m.PowerCycle()
	if m.SELActive() {
		t.Fatal("power cycle did not clear the SEL")
	}
	if m.tripConsecutive != 0 {
		t.Fatalf("tripConsecutive = %d after power cycle, want 0", m.tripConsecutive)
	}
	// The cleared board must run a full sustain period without tripping.
	for i := 0; i < 60; i++ {
		m.Step(time.Millisecond)
		m.sampleNow()
	}
	if m.ins.supplyTrips.Value() != 0 {
		t.Fatalf("supply tripped %d times after the latchup was cleared", m.ins.supplyTrips.Value())
	}
}
