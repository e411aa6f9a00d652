package fault

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestKindAndOutcomeStrings(t *testing.T) {
	if SEU.String() != "SEU" || MBU.String() != "MBU" || SEL.String() != "SEL" || Kind(9).String() != "unknown" {
		t.Fatal("Kind strings wrong")
	}
	if Corrected.String() != "Corrected" || NoEffect.String() != "No Effect" ||
		DetectedError.String() != "Error" || SDC.String() != "SDC" || Outcome(9).String() != "unknown" {
		t.Fatal("Outcome strings wrong")
	}
}

func TestScheduleRateMatchesExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	env := Environment{SEUPerDay: 1.6}
	days := 200
	events := env.Schedule(rng, time.Duration(days)*24*time.Hour)
	got := float64(len(events))
	want := 1.6 * float64(days)
	// Poisson with mean 320: 4σ ≈ 72.
	if math.Abs(got-want) > 72 {
		t.Fatalf("events = %v, want ≈%v", got, want)
	}
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatal("events not sorted")
		}
	}
}

func TestScheduleMixesKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	events := DeepSpace.Schedule(rng, 365*24*time.Hour)
	var seu, mbu, sel int
	for _, e := range events {
		switch e.Kind {
		case SEU:
			seu++
		case MBU:
			mbu++
		case SEL:
			sel++
			if e.Amps < DeepSpace.SELAmpsMin || e.Amps > DeepSpace.SELAmpsMax {
				t.Fatalf("SEL amps %v outside [%v,%v]", e.Amps, DeepSpace.SELAmpsMin, DeepSpace.SELAmpsMax)
			}
		}
	}
	if seu == 0 || mbu == 0 || sel == 0 {
		t.Fatalf("expected all kinds over a year: seu=%d mbu=%d sel=%d", seu, mbu, sel)
	}
	// MBUs ≈ 10% of upsets.
	frac := float64(mbu) / float64(seu+mbu)
	if frac < 0.03 || frac > 0.25 {
		t.Fatalf("MBU fraction = %.3f, want ≈0.10", frac)
	}
}

func TestScheduleEmptyEnvironment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if events := (Environment{}).Schedule(rng, time.Hour); len(events) != 0 {
		t.Fatalf("empty environment produced %d events", len(events))
	}
}

func TestRandomFlipBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		f := RandomFlip(rng, 100)
		if f.Offset >= 100 || f.Bit > 7 {
			t.Fatalf("flip out of bounds: %+v", f)
		}
	}
}

func TestRandomFlipEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RandomFlip(0) did not panic")
		}
	}()
	RandomFlip(rand.New(rand.NewSource(1)), 0)
}

func TestTally(t *testing.T) {
	var tl Tally
	tl.Add(Corrected)
	tl.Add(NoEffect)
	tl.Add(NoEffect)
	tl.Add(SDC)
	if tl.Counts[Corrected] != 1 || tl.Counts[NoEffect] != 2 || tl.Counts[SDC] != 1 || tl.Counts[DetectedError] != 0 {
		t.Fatalf("counts = %+v", tl.Counts)
	}
}

func TestTallyInvalidOutcomePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid outcome did not panic")
		}
	}()
	var tl Tally
	tl.Add(Outcome(7))
}

func TestProtectedAreaFractionTable4(t *testing.T) {
	// Paper Table 4 exactly.
	cases := []struct {
		scheme Scheme
		want   float64
	}{
		{SchemeNone, 0},
		{SchemeUnprotectedParallel, 0.75},
		{SchemeSerial3MR, 1.0},
		{SchemeEMR, 1.0},
	}
	for _, c := range cases {
		if got := ProtectedAreaFraction(c.scheme, Snapdragon845Areas); got != c.want {
			t.Errorf("%v: protected = %v, want %v", c.scheme, got, c.want)
		}
	}
	if got := ProtectedAreaFraction(Scheme(99), Snapdragon845Areas); got != 0 {
		t.Errorf("unknown scheme protected = %v", got)
	}
}

func TestSchemeStrings(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeNone:                "None",
		SchemeUnprotectedParallel: "Unprotected parallel 3-MR",
		SchemeSerial3MR:           "3-MR",
		SchemeEMR:                 "EMR",
		Scheme(42):                "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("Scheme(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestWindowOfVulnerabilityPaperExample(t *testing.T) {
	// §4.2.6: EMR uses 2× the area for 0.4× the runtime → 0.8 relative.
	if got := WindowOfVulnerability(2, 0.4); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("WoV = %v, want 0.8", got)
	}
	if got := WindowOfVulnerability(-1, 0.5); got != 0 {
		t.Fatalf("negative area WoV = %v, want 0", got)
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := DeepSpace.Schedule(rand.New(rand.NewSource(77)), 30*24*time.Hour)
	b := DeepSpace.Schedule(rand.New(rand.NewSource(77)), 30*24*time.Hour)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
