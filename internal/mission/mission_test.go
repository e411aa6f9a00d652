package mission

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"radshield/internal/fault"
	"radshield/internal/telemetry"
)

func TestCatalogProfilesValidate(t *testing.T) {
	for _, p := range Catalog() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.Total() <= 0 {
			t.Errorf("%s: non-positive total %v", p.Name, p.Total())
		}
	}
}

func TestProfileValidateRejects(t *testing.T) {
	for i, p := range []Profile{
		{Base: fault.LEO, Phase: []Phase{NewPhase(PhaseLEO, time.Hour)}},
		{Name: "empty", Base: fault.LEO},
		{Name: "zero-dur", Base: fault.LEO, Phase: []Phase{{Kind: PhaseLEO, SEU: 1, MBU: 1, SEL: 1}}},
		{Name: "bad-kind", Base: fault.LEO, Phase: []Phase{{Kind: PhaseKind(99), Duration: time.Hour, SEU: 1, MBU: 1, SEL: 1}}},
		{Name: "neg-mult", Base: fault.LEO, Phase: []Phase{{Kind: PhaseLEO, Duration: time.Hour, SEU: -1, MBU: 1, SEL: 1}}},
		{Name: "nan-mult", Base: fault.LEO, Phase: []Phase{{Kind: PhaseLEO, Duration: time.Hour, SEU: 1, MBU: 1, SEL: math.NaN()}}},
		// A boost that is not finite leaves base rates the arrival draw
		// never finishes with; Validate must refuse them without drawing.
		LEOWithSAA().Boosted(math.NaN()),
		LEOWithSAA().Boosted(math.Inf(1)),
		LEOWithSAA().Boosted(-1),
		// A finite boost so large that scheduling would exhaust memory.
		LEOWithSAA().Boosted(1e11),
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

func TestPhaseAtCoversWholeMission(t *testing.T) {
	p := LEOWithSAA()
	var start time.Duration
	for i, ph := range p.Phase {
		if got, idx := p.PhaseAt(start); idx != i || got.Kind != ph.Kind {
			t.Errorf("PhaseAt(%v) = phase %d (%v), want %d (%v)", start, idx, got.Kind, i, ph.Kind)
		}
		if got, idx := p.PhaseAt(start + ph.Duration - time.Nanosecond); idx != i {
			t.Errorf("PhaseAt(end-1ns of phase %d) = %d (%v)", i, idx, got.Kind)
		}
		start += ph.Duration
	}
	// At and past the end: the final phase.
	if _, idx := p.PhaseAt(p.Total() + time.Hour); idx != len(p.Phase)-1 {
		t.Errorf("PhaseAt past the end = %d, want final phase", idx)
	}
}

func TestScheduleDeterministicAndPhaseWeighted(t *testing.T) {
	p := SolarStormDrill().Boosted(2000)
	a, err := p.Schedule(rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Schedule(rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed drew %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d", i)
		}
	}

	// The storm phase must be visibly hotter than quiet cruise: compare
	// per-minute event densities across a handful of seeds.
	var quiet, storm float64
	stormStart, stormEnd := 40*time.Minute, 60*time.Minute
	quietLen := (p.Total() - 20*time.Minute).Minutes()
	for seed := int64(0); seed < 10; seed++ {
		events, err := p.Schedule(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if ev.T >= stormStart && ev.T < stormEnd {
				storm++
			} else {
				quiet++
			}
		}
	}
	stormRate := storm / 20
	quietRate := quiet / quietLen
	if stormRate < 10*quietRate {
		t.Errorf("storm density %.2f/min not ≫ quiet %.2f/min — multipliers not applied?", stormRate, quietRate)
	}
}

// phaseOwners counts the phases of p whose half-open span holds t.
func phaseOwners(p Profile, t time.Duration) (owners, last int) {
	var start time.Duration
	for i, ph := range p.Phase {
		if t >= start && t < start+ph.Duration {
			owners, last = owners+1, i
		}
		start += ph.Duration
	}
	return owners, last
}

// TestScheduleMatchesIntegratedFlux: over many seeds, the mean event
// count of each phase matches the phase's integrated flux (rate ×
// multiplier × duration) within Monte-Carlo tolerance.
func TestScheduleMatchesIntegratedFlux(t *testing.T) {
	p := Profile{
		Name: "flux",
		Base: fault.Environment{Name: "test", SEUPerDay: 48, MBUFrac: 0.1, SELAmpsMin: 0.07, SELAmpsMax: 0.25},
		Phase: []Phase{
			{Kind: PhaseLEO, Duration: 6 * time.Hour, SEU: 1, MBU: 1, SEL: 1},
			{Kind: PhaseSAA, Duration: 2 * time.Hour, SEU: 30, MBU: 1, SEL: 1},
			{Kind: PhaseLEO, Duration: 4 * time.Hour, SEU: 0.5, MBU: 1, SEL: 1},
		},
	}
	const runs = 300
	perPhase := make([]float64, len(p.Phase))
	for seed := int64(0); seed < runs; seed++ {
		events, err := p.Schedule(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			owners, i := phaseOwners(p, ev.T)
			if owners != 1 {
				t.Fatalf("event at %v falls in %d phases", ev.T, owners)
			}
			perPhase[i]++
		}
	}
	day := float64(24 * time.Hour)
	for i, ph := range p.Phase {
		lambda := p.Base.SEUPerDay / day * ph.SEU * float64(ph.Duration)
		mean := perPhase[i] / runs
		// Poisson mean estimate over `runs` trials: σ = sqrt(λ/runs);
		// allow 5σ so the test stays deterministic-in-practice.
		tol := 5 * math.Sqrt(lambda/runs)
		if math.Abs(mean-lambda) > tol {
			t.Errorf("phase %d: mean count %.2f, want %.2f ± %.2f (integrated flux)", i, mean, lambda, tol)
		}
	}
}

// TestScheduleOnePhaseMatchesEnvironment pins the identity that a
// one-phase profile at unit multipliers is exactly the constant-rate
// scheduler: identical events for the same seed.
func TestScheduleOnePhaseMatchesEnvironment(t *testing.T) {
	const dur = 12 * time.Hour
	env := fault.Environment{Name: "test", SEUPerDay: 200, MBUFrac: 0.2, SELPerYear: 4000, SELAmpsMin: 0.07, SELAmpsMax: 0.25}
	want := env.Schedule(rand.New(rand.NewSource(7)), dur)
	p := Profile{Name: "flat", Base: env, Phase: []Phase{NewPhase(PhaseLEO, dur)}}
	got, err := p.Schedule(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("profile drew %d events, flat schedule %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestScheduleOrderedAndInOnePhase is the no-drop/no-duplicate
// property: the events come in time order, and each lands in exactly
// one of the contiguous half-open phases.
func TestScheduleOrderedAndInOnePhase(t *testing.T) {
	p := Profile{
		Name: "boundaries",
		Base: fault.Environment{Name: "test", SEUPerDay: 200, MBUFrac: 0.2, SELPerYear: 400, SELAmpsMin: 0.07, SELAmpsMax: 0.25},
		Phase: []Phase{
			{Kind: PhaseLEO, Duration: time.Hour, SEU: 1, MBU: 1, SEL: 1},
			{Kind: PhaseSAA, Duration: time.Hour, SEU: 10, MBU: 1, SEL: 10},
			{Kind: PhaseLEO, Duration: time.Hour, SEU: 1, MBU: 1, SEL: 1},
		},
	}
	for seed := int64(0); seed < 50; seed++ {
		events, err := p.Schedule(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range events {
			if i > 0 && ev.T < events[i-1].T {
				t.Fatalf("seed %d: events out of order at %d", seed, i)
			}
			if owners, _ := phaseOwners(p, ev.T); owners != 1 {
				t.Fatalf("seed %d: event at %v owned by %d phases, want exactly 1", seed, ev.T, owners)
			}
		}
	}
}

// TestScheduleMBUClamp: a large MBU multiplier saturates the multi-bit
// fraction at 1, so every upset drawn in the phase is an MBU.
func TestScheduleMBUClamp(t *testing.T) {
	p := Profile{
		Name:  "mbu",
		Base:  fault.Environment{Name: "test", SEUPerDay: 500, MBUFrac: 0.5},
		Phase: []Phase{{Kind: PhaseSolarStorm, Duration: 24 * time.Hour, SEU: 1, MBU: 10, SEL: 1}},
	}
	events, err := p.Schedule(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events drawn")
	}
	for _, ev := range events {
		if ev.Kind == fault.SEU {
			t.Fatalf("clamped MBU fraction still drew an SEU at %v", ev.T)
		}
	}
}

func TestTrackerEmitsPhaseTransitions(t *testing.T) {
	reg := telemetry.NewRegistry(256)
	p := LEOWithSAA()
	tr := NewTracker(p, NewInstruments(reg))

	if ph := tr.Phase(); ph.Kind != PhaseLEO {
		t.Fatalf("initial phase %v, want leo_cruise", ph.Kind)
	}
	// Step through the whole mission at one-minute cadence.
	transitions := 0
	for tm := time.Duration(0); tm < p.Total(); tm += time.Minute {
		if _, changed := tr.Observe(tm); changed {
			transitions++
		}
	}
	if want := len(p.Phase) - 1; transitions != want {
		t.Errorf("saw %d transitions, want %d", transitions, want)
	}
	var phaseEvents int
	for _, ev := range reg.Snapshot().Events {
		if ev.Kind == telemetry.KindMissionPhase {
			phaseEvents++
		}
	}
	if phaseEvents != len(p.Phase)-1 {
		t.Errorf("emitted %d mission_phase events, want %d", phaseEvents, len(p.Phase)-1)
	}

	// A big step across several boundaries still logs every crossing.
	reg2 := telemetry.NewRegistry(256)
	tr2 := NewTracker(p, NewInstruments(reg2))
	if _, changed := tr2.Observe(p.Total() - time.Minute); !changed {
		t.Fatal("jump to final phase reported no change")
	}
	var jumped int
	for _, ev := range reg2.Snapshot().Events {
		if ev.Kind == telemetry.KindMissionPhase {
			jumped++
		}
	}
	if jumped != len(p.Phase)-1 {
		t.Errorf("jump emitted %d transition events, want the full history %d", jumped, len(p.Phase)-1)
	}
}

func TestQuietClassification(t *testing.T) {
	if !NewPhase(PhaseLEO, time.Hour).Quiet() {
		t.Error("LEO cruise should be quiet")
	}
	for _, k := range []PhaseKind{PhaseSAA, PhaseGEO, PhaseMarsTransit, PhaseJupiterFlyby, PhaseSolarStorm} {
		if NewPhase(k, time.Hour).Quiet() {
			t.Errorf("%v should not be quiet", k)
		}
	}
}
