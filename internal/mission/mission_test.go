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
		ws := p.Windows()
		if len(ws) != len(p.Phase) {
			t.Fatalf("%s: %d windows for %d phases", p.Name, len(ws), len(p.Phase))
		}
		var start time.Duration
		for i, w := range ws {
			if w.Start != start {
				t.Errorf("%s: window %d starts at %v, want contiguous %v", p.Name, i, w.Start, start)
			}
			start = w.End()
		}
		if start != p.Total() {
			t.Errorf("%s: windows cover %v, total is %v", p.Name, start, p.Total())
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
